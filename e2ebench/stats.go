package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and us convert durations to float milliseconds and microseconds.
func ms(ds []time.Duration) []float64 { return scaled(ds, time.Millisecond) }
func us(ds []time.Duration) []float64 { return scaled(ds, time.Microsecond) }

func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// timeIt returns how long fn took.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// goCost runs fn and returns the KiB this process allocated and the GC
// cycles it completed meanwhile.
func goCost(fn func() error) (allocKiB, gcCycles float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024, float64(after.NumGC - before.NumGC), err
}

// span is one timed call into a layer, recorded by the benchmark around
// a public function; the program itself carries no instrumentation.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the causing span in the same trace; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanTrace holds the spans of one unit of work (a cell or a run). Each
// is owned by one goroutine; passes keep one per unit.
type spanTrace struct {
	ID    string `json:"id"`
	t0    time.Time
	Spans []span `json:"spans"`
}

func newTrace(id string, t0 time.Time) *spanTrace { return &spanTrace{ID: id, t0: t0} }

func (tr *spanTrace) begin(name string, parent int) int {
	tr.Spans = append(tr.Spans, span{Name: name, Parent: parent, Start: int64(time.Since(tr.t0))})
	return len(tr.Spans) - 1
}

func (tr *spanTrace) end(i int) { tr.Spans[i].End = int64(time.Since(tr.t0)) }

// durations returns the durations of the spans named name.
func (tr *spanTrace) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range tr.Spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// coverage is the share of root span r that its direct children cover.
func (tr *spanTrace) coverage(r int) float64 {
	var child time.Duration
	for _, s := range tr.Spans {
		if s.Parent == r {
			child += s.dur()
		}
	}
	return float64(child) / float64(tr.Spans[r].dur())
}

// allDurations gathers the named spans across traces.
func allDurations(trs []*spanTrace, name string) []time.Duration {
	var out []time.Duration
	for _, tr := range trs {
		out = append(out, tr.durations(name)...)
	}
	return out
}

// dumpSpans writes the traces of one traced pass as JSON under dir.
func dumpSpans(dir, workload string, trs []*spanTrace) error {
	b, err := json.Marshal(trs)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
