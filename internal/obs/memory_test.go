package obs

import (
	"runtime"
	"testing"
	"time"
)

// TestHeapSamplerSeesAllocation pins that the sampler's peak covers a large
// allocation held across its sampling window.
func TestHeapSamplerSeesAllocation(t *testing.T) {
	var before runtime.MemStats
	// Two collections: objects kept alive by the first one (sync.Pool victim
	// caches, finalizer queues) are freed only by the next, so a single-GC
	// baseline counts garbage that a GC during the window can free.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	h := NewHeapSampler(time.Millisecond)
	big := make([]float64, 8<<20) // 64 MB, held until after Stop
	for i := range big {
		big[i] = float64(i)
	}
	time.Sleep(10 * time.Millisecond)
	peak := h.Stop()
	if peak < before.HeapAlloc+uint64(len(big))*8 {
		t.Fatalf("peak %d bytes did not cover the %d-byte allocation (baseline %d)",
			peak, len(big)*8, before.HeapAlloc)
	}
	runtime.KeepAlive(big)
}

// TestHeapSamplerStopIsFinalSample pins that Stop itself samples, so even a
// zero-duration window reports a nonzero live heap.
func TestHeapSamplerStopIsFinalSample(t *testing.T) {
	if peak := NewHeapSampler(time.Hour).Stop(); peak == 0 {
		t.Fatalf("instant Stop reported zero heap")
	}
}

func TestParseVmHWM(t *testing.T) {
	blob := []byte("Name:\tfoo\nVmPeak:\t  999 kB\nVmHWM:\t  4321 kB\nVmRSS:\t 100 kB\n")
	got, ok := parseVmHWM(blob)
	if !ok || got != 4321*1024 {
		t.Fatalf("parseVmHWM = %d, %v; want %d, true", got, ok, 4321*1024)
	}
	if _, ok := parseVmHWM([]byte("Name:\tfoo\n")); ok {
		t.Fatalf("parseVmHWM accepted a blob without VmHWM")
	}
	if _, ok := parseVmHWM([]byte("VmHWM:\tgarbage kB\n")); ok {
		t.Fatalf("parseVmHWM accepted garbage")
	}
}

// TestPeakRSS checks the live read on platforms that expose it; elsewhere it
// only requires a clean ok=false.
func TestPeakRSS(t *testing.T) {
	rss, ok := PeakRSS()
	if runtime.GOOS == "linux" {
		if !ok || rss == 0 {
			t.Fatalf("PeakRSS on linux = %d, %v", rss, ok)
		}
	} else if ok && rss == 0 {
		t.Fatalf("PeakRSS reported ok with zero value")
	}
}
