package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"subcouple/internal/serve"
)

// load is one closed-loop phase: every client sends its next request as
// soon as the previous answer has arrived and been checked.
type load struct {
	url  string // daemon base URL; requests go to url/apply
	raw  bool   // raw float64 codec, else JSON
	tr   *traffic
	swap *swapper // nil: no swaps
}

// loadResult holds what a phase measured on its successful operations.
type loadResult struct {
	lat    []float64 // ms per apply, request sent to answer decoded
	swaps  []float64 // ms per swap round trip
	drains []float64 // ms of drain each swap reported
	wall   time.Duration
}

// runLoad runs l for dur and counts every apply and swap in ph.
func runLoad(ctx context.Context, cfg *config, l *load, dur time.Duration, ph *phase) loadResult {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   daemonWait,
	}
	defer client.CloseIdleConnections()
	type clientStats struct {
		loadResult
		phase
	}
	stats := make([]clientStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; {
				if c == 1 && l.swap != nil && l.swap.due() {
					sp := cfg.tracer.BeginOn(c+1, "http.swap")
					t0 := time.Now()
					drain, err := l.swap.swap(ctx, client)
					sp.End()
					st.record(err)
					if err == nil {
						st.swaps = append(st.swaps, ms(time.Since(t0)))
						st.drains = append(st.drains, drain)
					}
					continue
				}
				id := c + i*clients
				i++
				sp := cfg.tracer.BeginOn(c+1, "http.apply").Arg("id", id)
				t0 := time.Now()
				err := l.apply(ctx, client, l.tr.order[id%poolSize])
				lat := time.Since(t0)
				sp.End()
				st.record(err)
				if err == nil {
					st.lat = append(st.lat, ms(lat))
				}
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{wall: time.Since(start)}
	for _, st := range stats {
		res.lat = append(res.lat, st.lat...)
		res.swaps = append(res.swaps, st.swaps...)
		res.drains = append(res.drains, st.drains...)
		ph.Attempted += st.Attempted
		ph.Succeeded += st.Succeeded
		ph.Failed += st.Failed
		for _, e := range st.Errors {
			if len(ph.Errors) < maxErrors {
				ph.Errors = append(ph.Errors, e)
			}
		}
		if st.Succeeded > 0 {
			ph.Clients++
		}
	}
	ph.WallS += res.wall.Seconds()
	return res
}

// apply posts pool vector k and checks the answer bit for bit.
func (l *load) apply(ctx context.Context, client *http.Client, k int) error {
	url, ctype, body := l.url+"/apply", "application/json", l.tr.json[k]
	if l.raw {
		url, ctype, body = l.url+"/apply?model="+alias, "application/octet-stream", l.tr.raw[k]
	}
	code, data, err := httpDo(ctx, client, http.MethodPost, url, ctype, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("apply: status %d: %s", code, bytes.TrimSpace(data))
	}
	got, err := decodeAnswer(data, l.raw)
	if err != nil {
		return err
	}
	return checkAnswer(got, l.tr.wants(k)...)
}

// decodeAnswer parses an /apply response body in either codec.
func decodeAnswer(data []byte, raw bool) ([]float64, error) {
	if raw {
		return serve.DecodeRawVector(data)
	}
	var out struct {
		Y []float64 `json:"y"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("apply: bad JSON answer: %w", err)
	}
	return out.Y, nil
}

// swapper flips alias "m" between the loaded versions through POST
// /admin/swap, on one replica at a time in turn, at most once per
// swapEvery. One client drives it.
type swapper struct {
	admins  []string // replica base URLs
	fps     []string // the versions, in the order they are cycled
	serving []int    // version index each replica serves
	next    int      // replica flipped next
	last    time.Time
}

func newSwapper(f *fleet, tr *traffic) *swapper {
	s := &swapper{serving: make([]int, len(f.replicas))}
	for _, d := range f.replicas {
		s.admins = append(s.admins, d.url)
	}
	for _, v := range tr.versions {
		s.fps = append(s.fps, v.fp)
	}
	return s
}

func (s *swapper) due() bool { return time.Since(s.last) >= swapEvery }

// swap flips the next replica to its next version and returns the drain
// time the replica reported, in ms.
func (s *swapper) swap(ctx context.Context, client *http.Client) (float64, error) {
	s.last = time.Now()
	r := s.next
	s.next = (r + 1) % len(s.admins)
	v := (s.serving[r] + 1) % len(s.fps)
	body, err := json.Marshal(map[string]string{"alias": alias, "fingerprint": s.fps[v]})
	if err != nil {
		return 0, err
	}
	code, data, err := httpDo(ctx, client, http.MethodPost, s.admins[r]+"/admin/swap", "application/json", body)
	if err != nil {
		return 0, err
	}
	var out struct {
		Fingerprint  string  `json:"fingerprint"`
		DrainSeconds float64 `json:"drain_seconds"`
	}
	if code != http.StatusOK || json.Unmarshal(data, &out) != nil || out.Fingerprint != s.fps[v] {
		return 0, fmt.Errorf("swap: status %d: %s (want fingerprint %s)", code, bytes.TrimSpace(data), s.fps[v])
	}
	s.serving[r] = v
	return out.DrainSeconds * 1e3, nil
}
