package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-test compares
// with metricTable.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// selfTest checks that BENCHMARK.json and metricTable agree, that a short
// run of each workload in each trace mode prints every metric named for it
// exactly once with its unit, and that a tampered expected output makes
// the run report correct=false.
func selfTest(base env) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	declared := map[string]benchMetric{}
	for _, m := range bf.EndToEnd {
		declared["e2e/"+m.Name] = m
	}
	for _, m := range bf.PerLayer {
		declared["layer/"+m.Name] = m
	}
	for _, m := range metricTable {
		if !m.gated {
			continue // measured and printed as info only
		}
		key := "e2e/" + m.name
		if m.perLayer {
			key = "layer/" + m.name
		}
		d, ok := declared[key]
		if !ok || d.Unit != m.unit || d.Better != m.better {
			return fmt.Errorf("metric %s (%s, %s) is not declared that way in BENCHMARK.json (%+v)", m.name, m.unit, m.better, d)
		}
		delete(declared, key)
	}
	for key := range declared {
		return fmt.Errorf("BENCHMARK.json declares %s, which no workload reports", key)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != strings.Join([]string{engineStream, fleetChurn, trainSync}, ",") {
		return fmt.Errorf("BENCHMARK.json workloads are %s", got)
	}

	for _, w := range []string{fleetChurn, engineStream, trainSync} {
		for _, trace := range []bool{false, true} {
			out, line, err := selfRun(base, w, trace, false)
			if err != nil {
				return err
			}
			if !line.Correct || line.Failed != 0 {
				return fmt.Errorf("%s trace=%v: correct=%v failed=%d\n%s", w, trace, line.Correct, line.Failed, out)
			}
			for _, m := range metricsFor(trace) {
				if n := strings.Count(out, "metric "+m.name+" "); n != 1 {
					return fmt.Errorf("%s trace=%v printed metric %s %d times\n%s", w, trace, m.name, n, out)
				}
				got, ok := line.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					return fmt.Errorf("%s trace=%v: result line lacks %s in %s", w, trace, m.name, m.unit)
				}
			}
			if len(line.Metrics) != len(metricsFor(trace)) {
				return fmt.Errorf("%s trace=%v: result line has %d metrics, want %d", w, trace, len(line.Metrics), len(metricsFor(trace)))
			}
			fmt.Printf("selftest %s trace=%v: %d metrics printed once each, outputs correct\n", w, trace, len(line.Metrics))
		}
		out, line, err := selfRun(base, w, false, true)
		if err != nil {
			return err
		}
		if line.Correct {
			return fmt.Errorf("%s: a tampered expected output was not caught\n%s", w, out)
		}
		fmt.Printf("selftest %s: tampered expected output caught (%d failed)\n", w, line.Failed)
	}
	fmt.Println("selftest passed")
	return nil
}

// selfRun runs one short workload and returns its report and result line.
func selfRun(base env, workload string, trace, tamper bool) (string, resultLine, error) {
	var buf bytes.Buffer
	e := base
	e.workload, e.seed, e.seconds, e.trace, e.tamper, e.out = workload, 7, 3, trace, tamper, &buf
	var line resultLine
	s, err := runOne(&e)
	if err != nil {
		return buf.String(), line, fmt.Errorf("%s trace=%v tamper=%v: %w", workload, trace, tamper, err)
	}
	err = json.Unmarshal([]byte(s), &line)
	return buf.String(), line, err
}
