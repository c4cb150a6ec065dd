package core

import (
	"fmt"
	"math"
	"math/rand"

	"reghd/internal/hdc"
)

// FaultView gives fault-injection harnesses (internal/fault) direct,
// mutable access to the live hypervector stores of a model: the slices
// alias the model's own state, so writing through them corrupts exactly the
// memory a deployed accelerator would hold. It exists for experiments that
// model hardware bit errors — production code must never mutate a model
// through it.
//
// The single-writer contract applies: mutate through a FaultView only while
// no prediction or training call is in flight on the same model (the fault
// wrapper serializes on its own lock; experiment code is single-threaded by
// construction). Nil fields mean the configuration does not materialize
// that store.
type FaultView struct {
	// Clusters are the integer cluster hypervectors C_i (nil when k = 1).
	Clusters []hdc.Vector
	// ClustersBin are the binary cluster shadows C_i^b (binary cluster
	// modes only).
	ClustersBin []*hdc.Binary
	// Models are the integer regression hypervectors M_i.
	Models []hdc.Vector
	// ModelsBin are the binary model shadows M_i^b (binary model modes
	// only).
	ModelsBin []*hdc.Binary
}

// FaultView returns mutable aliases of the model's hypervector stores for
// fault injection. See the FaultView type for the access contract.
func (m *Model) FaultView() FaultView {
	return FaultView{
		Clusters:    m.clusters,
		ClustersBin: m.clustersBin,
		Models:      m.models,
		ModelsBin:   m.modelsBin,
	}
}

// Clone returns an independent deep copy of the model: mutating the clone
// (training it further, injecting faults) never affects the original. The
// clone's shuffling stream is re-seeded from the configuration, so a clone
// trained further diverges from the original only through that stream. The
// encoder is shared (read-only after construction); the optional
// counters/stage accumulators and any MarkSync baseline are not carried
// over — a clone starts with clean instrumentation and no sync point.
// Everything a training worker mutates (hypervector stores, shadows,
// scales, calibration, sample/assignment census, similarity scratch,
// prediction scratch pool, rng) is private to the clone, which is what
// lets FitParallel train clones concurrently under -race.
func (m *Model) Clone() *Model {
	c := &Model{
		params:  m.params,
		trained: m.trained,
		samples: m.samples,
		rng:     rand.New(rand.NewSource(m.cfg.Seed)),
		scratch: m.newScratchPool(),
	}
	c.clusters = cloneVectors(m.clusters)
	c.clustersSet, c.clustersBin = hdc.NewBinarySet(m.clustersBin)
	c.models = cloneVectors(m.models)
	c.modelsBin = cloneBinaries(m.modelsBin)
	c.modelScale = append([]float64(nil), m.modelScale...)
	if m.assignN != nil {
		c.assignN = append([]uint64(nil), m.assignN...)
	}
	if m.cfg.Models > 1 {
		c.sims = make([]float64, m.cfg.Models)
		c.conf = make([]float64, m.cfg.Models)
	}
	return c
}

// FlipModelBits injects hardware faults into the binary model shadows by
// flipping the given fraction of randomly chosen bits in every M_i^b. It
// models memory errors in a deployed quantized model (the robustness claim
// of Section 3). The configuration must use a binary model.
func (m *Model) FlipModelBits(rng *rand.Rand, fraction float64) error {
	if !m.cfg.PredictMode.UsesBinaryModel() {
		return fmt.Errorf("core: FlipModelBits requires a binary-model PredictMode, have %s", m.cfg.PredictMode)
	}
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("core: fault fraction must be in [0,1], got %v", fraction)
	}
	nFlips := int(math.Round(fraction * float64(m.dim)))
	for _, mb := range m.modelsBin {
		idx := rng.Perm(m.dim)[:nFlips]
		mb.FlipBits(idx)
	}
	return nil
}

// CorruptModelComponents injects faults into the integer regression models
// by replacing the given fraction of randomly chosen components of every
// M_i with values drawn uniformly from [−max|M_i|, +max|M_i|], modeling
// corrupted memory words in a full-precision deployment.
func (m *Model) CorruptModelComponents(rng *rand.Rand, fraction float64) error {
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("core: fault fraction must be in [0,1], got %v", fraction)
	}
	nCorrupt := int(math.Round(fraction * float64(m.dim)))
	for _, mv := range m.models {
		var maxAbs float64
		for _, v := range mv {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		idx := rng.Perm(m.dim)[:nCorrupt]
		for _, j := range idx {
			mv[j] = (rng.Float64()*2 - 1) * maxAbs
		}
	}
	// Faults in the integer model propagate into stale binary shadows only
	// at the next refresh; a deployed quantized model keeps its own bits,
	// so shadows are deliberately left untouched.
	return nil
}
