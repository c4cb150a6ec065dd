package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// ErrCorruptModel is the sentinel wrapped by Load/LoadFile when the stored
// bytes cannot be decoded into a structurally valid model — a truncated
// write, bit rot, or a file that was never a model checkpoint. Callers
// match it with errors.Is to distinguish a damaged checkpoint (fall back to
// an older one) from an I/O error such as a missing file.
var ErrCorruptModel = errors.New("core: corrupt model file")

// modelState is the wire form of a trained model. The encoder travels as an
// encoding.Encoder interface value (the concrete encoders register
// themselves with gob).
type modelState struct {
	Cfg            Config
	Encoder        encoding.Encoder
	Clusters       []hdc.Vector
	ClustersBin    []*hdc.Binary
	Models         []hdc.Vector
	ModelsBin      []*hdc.Binary
	ModelScale     []float64
	CalibA, CalibB float64
	Trained        bool
	// Samples/AssignN carry the training census that weights bundling
	// merges (see merge.go). Absent in checkpoints written before the
	// fields existed; Load tolerates that (gob skips missing fields) and
	// re-allocates the assignment slice.
	Samples uint64
	AssignN []uint64
}

// Save serializes the model (including its encoder and any binary shadows)
// to w in gob format.
func (m *Model) Save(w io.Writer) error {
	st := modelState{
		Cfg:         m.cfg,
		Encoder:     m.enc,
		Clusters:    m.clusters,
		ClustersBin: m.clustersBin,
		Models:      m.models,
		ModelsBin:   m.modelsBin,
		ModelScale:  m.modelScale,
		CalibA:      m.calibA,
		CalibB:      m.calibB,
		Trained:     m.trained,
		Samples:     m.samples,
		AssignN:     m.assignN,
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// SaveFile saves the model to a file path atomically: the state is written
// to a temporary file in the same directory, synced, and renamed over the
// destination. A crash (or full disk) mid-save can therefore never leave a
// truncated or half-written model at path — readers observe either the old
// complete checkpoint or the new one, which is what a serving deployment
// reloading checkpoints needs.
func (m *Model) SaveFile(path string) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	tmp := f.Name()
	// Any failure from here on removes the temp file; the destination is
	// only ever touched by the final rename.
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := m.Save(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("core: syncing model file: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: closing model file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: publishing model file: %w", err)
	}
	return nil
}

// Load deserializes a model previously written by Save. The restored model
// predicts identically to the saved one; further training continues from
// the saved state (with a re-seeded shuffling stream).
func Load(r io.Reader) (*Model, error) {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptModel, err)
	}
	if st.Encoder == nil {
		return nil, fmt.Errorf("%w: no encoder", ErrCorruptModel)
	}
	if err := st.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrCorruptModel, err)
	}
	if len(st.Models) != st.Cfg.Models {
		return nil, fmt.Errorf("%w: %d model vectors, config says %d", ErrCorruptModel, len(st.Models), st.Cfg.Models)
	}
	dim := st.Encoder.Dim()
	if err := hdc.CheckDims(dim, st.Models...); err != nil {
		return nil, fmt.Errorf("%w: model vectors: %v", ErrCorruptModel, err)
	}
	if err := checkClusterShadows(st.Cfg, dim, st.ClustersBin); err != nil {
		return nil, fmt.Errorf("%w: cluster shadows: %v", ErrCorruptModel, err)
	}
	m := &Model{
		params: params{
			cfg:        st.Cfg,
			enc:        st.Encoder,
			dim:        dim,
			clusters:   st.Clusters,
			models:     st.Models,
			modelsBin:  st.ModelsBin,
			modelScale: st.ModelScale,
			calibA:     st.CalibA,
			calibB:     st.CalibB,
		},
		trained: st.Trained,
		samples: st.Samples,
		rng:     rand.New(rand.NewSource(st.Cfg.Seed)),
	}
	m.scratch = m.newScratchPool()
	m.clustersSet, m.clustersBin = hdc.NewBinarySet(st.ClustersBin)
	if m.cfg.Models > 1 {
		m.sims = make([]float64, m.cfg.Models)
		m.conf = make([]float64, m.cfg.Models)
		m.assignN = st.AssignN
		if len(m.assignN) != m.cfg.Models {
			// Pre-census checkpoint (or corrupt slice): start a fresh count.
			m.assignN = make([]uint64, m.cfg.Models)
		}
	}
	return m, nil
}

// checkClusterShadows validates decoded binary cluster shadows before they
// are copied into the model's slab: k of them in binary cluster modes with
// k > 1, none otherwise, each a well-formed dimension-dim vector.
func checkClusterShadows(cfg Config, dim int, bs []*hdc.Binary) error {
	want := 0
	if cfg.Models > 1 && cfg.ClusterMode != ClusterInteger {
		want = cfg.Models
	}
	if len(bs) != want {
		return fmt.Errorf("%d vectors, want %d", len(bs), want)
	}
	for i, b := range bs {
		if b == nil || b.Dim != dim || len(b.Words) != (dim+63)/64 {
			return fmt.Errorf("vector %d is not a dimension-%d binary", i, dim)
		}
	}
	return nil
}

// LoadFile loads a model from a file path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return Load(f)
}
