package model

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Fingerprint hashes the exact bit patterns of deterministic probe applies —
// one single-RHS ApplyInto (plus the same probe through Gwt when the model
// carries one) and one 3-column ApplyPanelInto — with FNV-1a. The probe
// vectors depend only on the contact count, so every bitwise-faithful
// serving path over the same operator (the in-memory extraction result, a
// decoded .scm artifact, a subserve daemon) reports the same value, for any
// worker count.
func (e *Engine) Fingerprint(workers int) uint64 {
	n := e.m.N
	x := make([]float64, 3*n)
	y := make([]float64, 3*n)
	probe := func(dst []float64, shift int) {
		for i := range dst {
			// Pure integer arithmetic: reproducible across platforms.
			dst[i] = float64((i*2654435761+shift*40503)%1024)/512 - 1
		}
	}
	h := fnv.New64a()
	var b [8]byte
	mix := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	probe(x[:n], 0)
	e.ApplyInto(y[:n], x[:n])
	mix(y[:n])
	if e.m.Gwt != nil {
		e.ApplyPanelInto(y[:n], x[:n], 1, 1, true)
		mix(y[:n])
	}
	for c := 0; c < 3; c++ {
		probe(x[c*n:(c+1)*n], c+1)
	}
	e.ApplyPanelInto(y, x, 3, workers, false)
	mix(y)
	return h.Sum64()
}

// FingerprintOf computes the content fingerprint of m on a throwaway engine.
// It is the content address the serving registry keys versions by.
func FingerprintOf(m *Model, workers int) uint64 {
	return NewEngine(m).Fingerprint(workers)
}
