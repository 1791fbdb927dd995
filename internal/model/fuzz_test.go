package model_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"subcouple/internal/model"
)

// FuzzDecodeModel hammers the artifact parser with corrupt and adversarial
// inputs. The contract: Decode never panics and never over-allocates, and any
// input it accepts is a fully valid model — it re-encodes deterministically,
// the re-encoded artifact decodes again, and its engine applies without
// panicking.
func FuzzDecodeModel(f *testing.F) {
	valid, err := model.Encode(tinyModel())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	crcFlipped := append([]byte(nil), valid...)
	crcFlipped[len(crcFlipped)-1] ^= 0x01
	f.Add(crcFlipped)
	wrongVersion := tamper(valid, func(b []byte) {
		binary.LittleEndian.PutUint32(b[len(model.Magic):], model.Version+7)
	})
	f.Add(wrongVersion)
	f.Add([]byte("not a model artifact at all"))
	f.Add([]byte(model.Magic))
	f.Add(nanGwArtifact(f)) // checksum intact, NaN in Gw

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := model.Decode(data)
		if err != nil {
			return
		}
		// Accepted ⇒ valid and round-trippable.
		re, err := model.Encode(m)
		if err != nil {
			t.Fatalf("accepted model fails re-encode: %v", err)
		}
		m2, err := model.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded artifact fails decode: %v", err)
		}
		re2, err := model.Encode(m2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("re-encoding is not deterministic")
		}
		// Checksum really covers the bytes the decoder read.
		if got := crc32.ChecksumIEEE(re[:len(re)-4]); got != binary.LittleEndian.Uint32(re[len(re)-4:]) {
			t.Fatal("encoder wrote a mismatched checksum")
		}
		// Applying an accepted model must not panic (bounded: fuzz inputs are
		// small, so Validate's layout check caps N well below this).
		if m.N <= 1<<12 {
			x := make([]float64, m.N)
			for i := range x {
				x[i] = float64(i%5) - 2
			}
			out := make([]float64, m.N)
			model.NewEngine(m).ApplyInto(out, x)
		}
	})
}
