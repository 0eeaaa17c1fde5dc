package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// flipOne corrupts one digit inside the result of the nth POST it
// serves, leaving the JSON well formed so only the byte check can
// notice.
type flipOne struct {
	h     http.Handler
	n     int64
	posts atomic.Int64
}

func (f *flipOne) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || f.posts.Add(1) != f.n {
		f.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if i := bytes.Index(body, []byte(`"committed":`)); i >= 0 {
		d := &body[i+len(`"committed":`)]
		*d = '1' + (*d-'0')%8 // another digit, never a leading zero
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestCorruptedHitCountedAsFailed drives the service phases against an
// in-process server that corrupts exactly one cache-hit response, and
// requires exactly that operation to be counted as failed.
func TestCorruptedHitCountedAsFailed(t *testing.T) {
	const nHit = 4
	in, err := genInputs(7, nHit, rounds)
	if err != nil {
		t.Fatal(err)
	}
	eng := service.NewEngine(service.EngineConfig{Workers: 2})
	defer eng.Shutdown(context.Background())
	// The hit working set and the first round's one fresh cold cell
	// take the first nHit+1 POSTs; the next is a hit.
	srv := httptest.NewServer(&flipOne{h: service.NewServer(eng), n: nHit + 2})
	defer srv.Close()

	var tl tally
	tg := newTarget(srv.URL, 2)
	pr, err := servicePass(tg, &tl, in, 2, 200*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	verifyPass(tg, &tl, in, pr)
	tl.check(guard(pr.last))
	if got := tl.failed.Load(); got != 1 {
		t.Fatalf("failed = %d of %d operations, want exactly the corrupted hit", got, tl.attempted.Load())
	}
	if len(pr.hit) == 0 || len(pr.batch) < digestBatches {
		t.Fatalf("phases too short: %d hits, %d batches", len(pr.hit), len(pr.batch))
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/pipeline.(*Pipeline).Cycle":   "pipeline",
		"repro/internal/cache.(*Hierarchy).Inst":      "cache",
		"repro/internal/service.(*Engine).runJob":     "service",
		"net/http.(*conn).serve":                      "net/http",
		"runtime.mallocgc":                            "runtime",
		"crypto/sha256.block":                         "other",
		"main.spin":                                   "other",
		"repro/internal/trace.(*Generator).Next.func": "trace",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

// TestProfileFolds folds a real CPU profile: the shares cover all of
// it and the spinning test code lands outside the repository buckets.
func TestProfileFolds(t *testing.T) {
	m, err := profileRun(t.TempDir(), func() error { spin(300 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range append(cpuBuckets, "other") {
		total += m[cpuMetric(b)].Value
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("self shares sum to %v, want 1", total)
	}
	if m["cpu.other"].Value < 0.5 {
		t.Errorf("cpu.other = %v, want the spin loop's majority", m["cpu.other"].Value)
	}
}

// TestCalmP99 averages the p99s of the windows within calmSteal and
// falls back to the least-stolen window when none is.
func TestCalmP99(t *testing.T) {
	fast, slow := []float64{1}, []float64{9}
	if got := calmP99([]hitWindow{{slow, 0.2}, {fast, 0}, {slow, calmSteal}}); got != 5 {
		t.Errorf("calm windows: p99 = %v, want the mean 5", got)
	}
	if got := calmP99([]hitWindow{{fast, 0.3}, {slow, 0.1}, {fast, 0.2}}); got != 9 {
		t.Errorf("no calm window: p99 = %v, want the least-stolen window's 9", got)
	}
}

// TestManifestMetrics holds the metric lists the benchmark reports to
// the ones BENCHMARK.json declares, name and unit.
func TestManifestMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var man struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		man  []entry
		want map[string]string
	}{{"end_to_end", man.EndToEnd, endToEnd}, {"per_layer", man.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, e := range c.man {
			got[e.Name] = e.Unit
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: manifest lists %d metrics, the benchmark %d", c.key, len(got), len(c.want))
		}
		for name, unit := range c.want {
			if got[name] != unit {
				t.Errorf("%s: %s in %q in the manifest, %q in the benchmark", c.key, name, got[name], unit)
			}
		}
	}
}

// TestSplit reports the manifest's metrics, moves the rest to the
// detail line, and refuses a missing metric or a changed unit.
func TestSplit(t *testing.T) {
	want := map[string]string{"a": "ms"}
	report, detail, err := split(metrics{"a": {1, "ms"}, "b": {2, "s"}}, want)
	if err != nil || len(report) != 1 || len(detail) != 1 || detail["b"].Value != 2 {
		t.Errorf("split = %v, %v, %v", report, detail, err)
	}
	if _, _, err := split(metrics{"b": {2, "s"}}, want); err == nil {
		t.Error("a missing metric was not refused")
	}
	if _, _, err := split(metrics{"a": {1, "s"}}, want); err == nil {
		t.Error("a metric in another unit was not refused")
	}
}
