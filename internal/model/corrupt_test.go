package model_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"subcouple/internal/core"
	"subcouple/internal/geom"
	"subcouple/internal/model"
	"subcouple/internal/sparse"
)

// tinyModel builds the smallest interesting valid model by hand: two
// contacts, identity-ish Q columns, a diagonal Gw, a swapped presentation
// order, and one metadata entry.
func tinyModel() *model.Model {
	return &model.Model{
		Method: "low-rank",
		N:      2,
		Solves: 5,
		Kind:   model.QColumns,
		Cols: &model.Columns{
			ColPtr: []int{0, 1, 2},
			RowIdx: []int{0, 1},
			Val:    []float64{1, 1},
		},
		Gw: sparse.FromTriplets(2, 2, []sparse.Triplet{
			{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 3},
		}),
		Order: []int{1, 0},
		Layout: &geom.Layout{
			A: 4, B: 4,
			Contacts: []geom.Contact{
				{Rect: geom.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}},
				{Rect: geom.Rect{X0: 2, Y0: 2, X1: 3, Y1: 3}, Group: 1},
			},
		},
		Meta: map[string]string{"max_level": "2"},
	}
}

func tinyArtifact(t testing.TB) []byte {
	t.Helper()
	data, err := model.Encode(tinyModel())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tamper returns a copy of data with patch applied and the trailing CRC
// recomputed, so the corruption reaches the payload parser instead of being
// caught by the checksum.
func tamper(data []byte, patch func(b []byte)) []byte {
	b := append([]byte(nil), data...)
	patch(b)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// nanGwArtifact returns the tiny artifact with its first Gw value patched to
// NaN through tamper, so the checksum holds and only value validation can
// refuse it.
func nanGwArtifact(t testing.TB) []byte {
	t.Helper()
	data := tinyArtifact(t)
	var gw []byte
	for _, v := range tinyModel().Gw.Val {
		gw = binary.LittleEndian.AppendUint64(gw, math.Float64bits(v))
	}
	off := bytes.Index(data, gw)
	if off < 0 {
		t.Fatal("Gw values not found in the tiny artifact")
	}
	return tamper(data, func(b []byte) {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(math.NaN()))
	})
}

func wantDecodeError(t *testing.T, name string, data []byte, wantSub string) {
	t.Helper()
	m, err := model.Decode(data)
	if err == nil {
		t.Fatalf("%s: decode accepted corrupt artifact (got model with N=%d)", name, m.N)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
	}
}

func TestDecodeRejectsCorruptArtifacts(t *testing.T) {
	data := tinyArtifact(t)

	t.Run("truncation", func(t *testing.T) {
		// Every proper prefix must be rejected, never crash, never succeed.
		for n := 0; n < len(data); n++ {
			if _, err := model.Decode(data[:n]); err == nil {
				t.Fatalf("decode accepted a %d-byte prefix of a %d-byte artifact", n, len(data))
			}
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[0] ^= 0xff
		wantDecodeError(t, "magic", b, "magic")
	})

	t.Run("flipped payload byte", func(t *testing.T) {
		// Flip a byte mid-payload without fixing the CRC: checksum must trip.
		b := append([]byte(nil), data...)
		b[len(b)/2] ^= 0x01
		wantDecodeError(t, "crc", b, "checksum")
	})

	t.Run("flipped crc byte", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[len(b)-1] ^= 0x01
		wantDecodeError(t, "crc", b, "checksum")
	})

	t.Run("wrong version", func(t *testing.T) {
		b := tamper(data, func(b []byte) {
			binary.LittleEndian.PutUint32(b[len(model.Magic):], model.Version+1)
		})
		wantDecodeError(t, "version", b, "version")
	})

	t.Run("absurd contact count", func(t *testing.T) {
		// N sits right after the method string; a huge value must be bounded
		// before any allocation happens.
		off := len(model.Magic) + 4 + 8 + len("low-rank")
		b := tamper(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[off:], 1<<40)
		})
		wantDecodeError(t, "contact count", b, "")
	})

	t.Run("dimension mismatch", func(t *testing.T) {
		// N=1 makes every downstream length check inconsistent with the rest
		// of the payload; strict validation must reject, not partially load.
		off := len(model.Magic) + 4 + 8 + len("low-rank")
		b := tamper(data, func(b []byte) {
			binary.LittleEndian.PutUint64(b[off:], 1)
		})
		wantDecodeError(t, "dimensions", b, "")
	})

	t.Run("NaN in Gw", func(t *testing.T) {
		wantDecodeError(t, "non-finite", nanGwArtifact(t), "NaN")
	})

	t.Run("trailing garbage", func(t *testing.T) {
		b := append(append([]byte(nil), data[:len(data)-4]...), 0xde, 0xad)
		b = append(b, make([]byte, 4)...)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		wantDecodeError(t, "trailing", b, "")
	})

	// The pristine artifact still decodes after all that.
	if _, err := model.Decode(data); err != nil {
		t.Fatalf("pristine artifact rejected: %v", err)
	}
}

// TestEncodeRejectsInvalidModel: Encode writes no artifact for a model that
// fails Validate, whether its structure is broken or a NaN or ±Inf sits
// anywhere in Q, Gw or Gwt.
func TestEncodeRejectsInvalidModel(t *testing.T) {
	factored, err := model.Decode(mustEncode(t, extract256(t, core.Wavelet).Model()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *model.Model
		bad  func(m *model.Model)
	}{
		{"order not a permutation", tinyModel(), func(m *model.Model) { m.Order = []int{0, 0} }},
		{"+Inf in Q columns", tinyModel(), func(m *model.Model) { m.Cols.Val[1] = math.Inf(1) }},
		{"NaN in a Q block", factored, func(m *model.Model) { m.Levels[0].Blocks[0].Data[0] = math.NaN() }},
		{"-Inf in Gw", tinyModel(), func(m *model.Model) { m.Gw.Val[1] = math.Inf(-1) }},
		{"NaN in Gwt", tinyModel(), func(m *model.Model) {
			m.Gwt = sparse.FromTriplets(2, 2, []sparse.Triplet{{Row: 1, Col: 0, Val: math.NaN()}})
		}},
	} {
		if err := tc.m.Validate(); err != nil {
			t.Fatalf("%s: model invalid before the change: %v", tc.name, err)
		}
		tc.bad(tc.m)
		if _, err := model.Encode(tc.m); err == nil {
			t.Fatalf("%s: encode accepted a model failing Validate", tc.name)
		}
	}
}

func mustEncode(t testing.TB, m *model.Model) []byte {
	t.Helper()
	data, err := model.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
