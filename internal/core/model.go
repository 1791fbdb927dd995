package core

import (
	"fmt"

	"subcouple/internal/model"
)

// Model returns the serializable model behind this result: everything needed
// to apply G ≈ Q·Gw·Qᵀ without the extraction machinery (encode it with
// model.Encode / model.Write). The model shares storage with the Result.
func (r *Result) Model() *model.Model { return r.model }

// Engine returns the result's apply engine (scratch-buffered ApplyInto /
// ApplyPanelInto / ColumnInto). The engine is not safe for concurrent use; spawn
// extra engines with model.NewEngine(r.Model()) for concurrent streams.
func (r *Result) Engine() *model.Engine { return r.engine }

// FromModel reconstructs a Result from a decoded model artifact. No
// substrate solves happen on this path — the returned Result reports
// Solves == 0 (the extraction-time count stays available as m.Solves) — and
// its Apply/Column outputs are bitwise identical to the extraction-time
// Result's, because both route through the same engine representation.
func FromModel(m *model.Model) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var method Method
	switch m.Method {
	case Wavelet.String():
		method = Wavelet
	case LowRank.String():
		method = LowRank
	default:
		return nil, fmt.Errorf("core: model extracted with unknown method %q", m.Method)
	}
	return &Result{
		Method: method,
		Layout: m.Layout,
		Gw:     m.Gw,
		Gwt:    m.Gwt,
		Solves: 0,
		model:  m,
		engine: model.NewEngine(m),
	}, nil
}
