package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/service"
	"repro/internal/sim"
)

// The service_mixed traffic. The first hitKeys cold cells form the hit
// working set, four times the daemon's LRU (cacheEntries), so about
// three hits in four are read back from the disk cache. After them the
// pass alternates rounds of fresh cold cells, a hit window and a batch
// window, so every phase samples the whole run rather than one stretch
// of it. Batches are small fig6 matrices with more cells than workers;
// every fifth one repeats an earlier batch and is served from the cache.
// No recorded traffic exists, so these proportions are assumed; the
// README lists the ones a recorded trace would replace.
const (
	hitKeys      = 160
	cacheEntries = hitKeys / 4
	rounds       = 16
	roundCold    = 10 // fresh cold cells per round, outside the hit set
	tinyWarmup   = 20_000
	coldCycles   = 100_000 // plus a seeded 0-10% so every cell is distinct
	batchCycles  = 110_000
	batchStream  = 1000 // batches generated; a run consumes a prefix
	batchRepeat  = 5    // every batchRepeat-th batch is a repeat
	// digestBatches is how many leading batches the pinned service
	// digest covers; every run completes at least these.
	digestBatches = 4
)

var (
	coldBenches = []string{"eon", "gzip", "perlbmk", "crafty", "art", "mcf", "swim", "parser"}
	// Every batch has the same shape, so fresh batches cost alike and
	// the p50 does not fall between two kinds of batch.
	batchBenches = []string{"eon", "art", "crafty"}
	cellVariants = []config.Techniques{{}, {IQ: config.IQToggle}}
)

type cellInput struct {
	req  service.Request
	key  string
	body []byte
}

type batchInput struct {
	body  []byte
	cells []cellInput
}

// serviceInputs is everything the load generator sends, derived from
// the workload seed alone.
type serviceInputs struct {
	seed    uint64
	cold    []cellInput // the first nHit are the hit working set
	nHit    int
	batches []batchInput
}

func newCell(req service.Request) (cellInput, error) {
	key, err := req.Key()
	if err != nil {
		return cellInput{}, err
	}
	body, err := json.Marshal(req)
	return cellInput{req: req, key: key, body: body}, err
}

// genInputs draws nHit working-set cells, then nFresh more cold cells
// for the rounds, then the batch stream.
func genInputs(seed uint64, nHit, nFresh int) (*serviceInputs, error) {
	in := &serviceInputs{seed: seed, nHit: nHit}
	r := rand.New(rand.NewSource(int64(seed)))
	seen := map[string]bool{}
	for len(in.cold) < nHit+nFresh {
		i := len(in.cold)
		c, err := newCell(service.Request{
			Benchmark:  coldBenches[i%len(coldBenches)],
			Plan:       config.PlanIQConstrained,
			Techniques: cellVariants[i/len(coldBenches)%len(cellVariants)],
			Cycles:     coldCycles + 10*int64(r.Intn(1000)),
			Warmup:     tinyWarmup,
		})
		if err != nil {
			return nil, err
		}
		if !seen[c.key] {
			seen[c.key] = true
			in.cold = append(in.cold, c)
		}
	}
	usedCycles := map[int64]bool{}
	var fresh []int
	for j := 0; j < batchStream; j++ {
		if j%batchRepeat == batchRepeat-1 {
			in.batches = append(in.batches, in.batches[fresh[r.Intn(len(fresh))]])
			continue
		}
		cycles := int64(batchCycles + 10*r.Intn(1000))
		for usedCycles[cycles] {
			cycles += 10
		}
		usedCycles[cycles] = true
		breq := service.BatchRequest{
			Experiment: "fig6", Benchmarks: batchBenches,
			Cycles: cycles, Warmup: tinyWarmup,
		}
		_, reqs, err := breq.Cells()
		if err != nil {
			return nil, err
		}
		b := batchInput{}
		if b.body, err = json.Marshal(breq); err != nil {
			return nil, err
		}
		for _, req := range reqs {
			c, err := newCell(req)
			if err != nil {
				return nil, err
			}
			b.cells = append(b.cells, c)
		}
		fresh = append(fresh, len(in.batches))
		in.batches = append(in.batches, b)
	}
	return in, nil
}

// target is one pipethermd endpoint and the keep-alive client pool
// that drives it.
type target struct {
	base string
	hc   *http.Client
	ops  *atomic.Int64 // request ids, sent as X-Bench-Op
}

func newTarget(base string, clients int) target {
	tr := &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}
	return target{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, ops: new(atomic.Int64)}
}

// opSample is one request's id and round trip.
type opSample struct {
	id  int64
	rtt time.Duration
}

// submit POSTs one job with ?wait=1. A transport error or any non-2xx
// status (429 included) is an error.
func (tg target) submit(body []byte) (opSample, []byte, error) {
	id := tg.ops.Add(1)
	req, err := http.NewRequest(http.MethodPost, tg.base+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return opSample{}, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Op", strconv.FormatInt(id, 10))
	t0 := time.Now()
	resp, err := tg.hc.Do(req)
	if err != nil {
		return opSample{}, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := opSample{id: id, rtt: time.Since(t0)}
	if err != nil {
		return s, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return s, b, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, b)
	}
	return s, b, nil
}

func (tg target) get(path string) ([]byte, error) {
	resp, err := tg.hc.Get(tg.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %.200s", path, resp.StatusCode, b)
	}
	return b, nil
}

func (tg target) metrics() (service.Metrics, error) {
	var m service.Metrics
	b, err := tg.get("/metrics")
	if err == nil {
		err = json.Unmarshal(b, &m)
	}
	return m, err
}

// checkJob validates a job response: done, the expected key, and, when
// want is non-nil, result bytes equal to want.
func checkJob(body []byte, c cellInput, want []byte, wantCached bool) ([]byte, error) {
	var st struct {
		Key    string          `json:"key"`
		State  string          `json:"state"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("job %s: %w", c.key, err)
	}
	switch {
	case st.Key != c.key || st.State != string(service.JobDone) || len(st.Result) == 0:
		return nil, fmt.Errorf("job %s: got key %s state %q with %d result bytes", c.key, st.Key, st.State, len(st.Result))
	case wantCached && !st.Cached:
		return nil, fmt.Errorf("job %s: a repeat was not served from the cache", c.key)
	case want != nil && !bytes.Equal(st.Result, want):
		return nil, fmt.Errorf("job %s: result bytes differ from the cold result", c.key)
	}
	return st.Result, nil
}

func checkBatch(body []byte, b batchInput) error {
	var st struct {
		State string `json:"state"`
		Cells []struct {
			Key   string `json:"key"`
			State string `json:"state"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if st.State != string(service.JobDone) || len(st.Cells) != len(b.cells) {
		return fmt.Errorf("batch: state %q with %d cells, want done with %d", st.State, len(st.Cells), len(b.cells))
	}
	for i, c := range st.Cells {
		if c.Key != b.cells[i].key || c.State != string(service.JobDone) {
			return fmt.Errorf("batch cell %d: key %s state %q, want %s done", i, c.Key, c.State, b.cells[i].key)
		}
	}
	return nil
}

// fanOut runs fn on n client goroutines and waits for them.
func fanOut(n int, fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// passResult is what one pass of the three phases measured.
type passResult struct {
	cold, hit, batch []opSample
	coldWindows      []coldWindow
	hitWindows       []hitWindow
	coldResults      [][]byte // by cold index
	// deltas sums each phase's /metrics counter deltas over its windows.
	deltas map[string]map[string]float64
	last   service.Metrics // /metrics at the end of the pass
}

// counters picks the /metrics counters the phase deltas are taken of.
func counters(m service.Metrics) map[string]float64 {
	return map[string]float64{
		"cache_hits": float64(m.CacheHits), "cache_misses": float64(m.CacheMisses),
		"lru_hits": float64(m.Cache.Hits), "disk_hits": float64(m.Cache.DiskHits),
		"stolen": float64(m.JobsStolen), "deduped": float64(m.JobsDeduped),
		"alloc_bytes": float64(m.Runtime.TotalAllocBytes), "gc_cycles": float64(m.Runtime.GCCycles),
	}
}

// servicePass drives the phases with one closed-loop keep-alive client
// per goroutine: the hit working set cold, then rounds of fresh cold
// cells, a hit window and a batch window.
func servicePass(tg target, t *tally, in *serviceInputs, clients int, hitDur, batchDur time.Duration) (*passResult, error) {
	pr := &passResult{coldResults: make([][]byte, len(in.cold)), deltas: map[string]map[string]float64{}}
	// window runs fn on every client, folds its samples and its
	// /metrics delta into the named phase, and returns its wall time.
	window := func(name string, dst *[]opSample, fn func(c int, rec func(opSample))) (time.Duration, error) {
		before, err := tg.metrics()
		if err != nil {
			return 0, err
		}
		steal0 := stealTicks()
		per := make([][]opSample, clients)
		wall := timeIt(func() {
			fanOut(clients, func(c int) { fn(c, func(s opSample) { per[c] = append(per[c], s) }) })
		})
		if pr.last, err = tg.metrics(); err != nil {
			return 0, err
		}
		var got []opSample
		for _, p := range per {
			got = append(got, p...)
		}
		*dst = append(*dst, got...)
		if name == "hit" {
			pr.hitWindows = append(pr.hitWindows, hitWindow{rttMs(got), stealFrac(steal0, stealTicks())})
		}
		d := pr.deltas[name]
		if d == nil {
			d = map[string]float64{}
			pr.deltas[name] = d
		}
		b, a := counters(before), counters(pr.last)
		for k := range a {
			d[k] += a[k] - b[k]
		}
		return wall, nil
	}
	cold := func(lo, hi int) func(c int, rec func(opSample)) {
		var next atomic.Int64
		next.Store(int64(lo))
		return func(c int, rec func(opSample)) {
			for i := int(next.Add(1) - 1); i < hi; i = int(next.Add(1) - 1) {
				s, body, err := tg.submit(in.cold[i].body)
				if err == nil {
					pr.coldResults[i], err = checkJob(body, in.cold[i], nil, false)
				}
				if t.check(err) {
					rec(s)
				}
			}
		}
	}
	hitRand := make([]*rand.Rand, clients)
	// seen holds, per client, the last response body that passed the
	// full hit check for each key; an identical body needs no decoding,
	// which keeps the load generator's CPU off the daemon's cores.
	seen := make([][][]byte, clients)
	for c := range hitRand {
		hitRand[c] = rand.New(rand.NewSource(int64(in.seed)*7919 + int64(c) + 1))
		seen[c] = make([][]byte, in.nHit)
	}
	hit := func(deadline time.Time) func(c int, rec func(opSample)) {
		return func(c int, rec func(opSample)) {
			for time.Now().Before(deadline) {
				i := hitRand[c].Intn(in.nHit)
				s, body, err := tg.submit(in.cold[i].body)
				if err == nil && (seen[c][i] == nil || !bytes.Equal(body, seen[c][i])) {
					if _, err = checkJob(body, in.cold[i], pr.coldResults[i], true); err == nil {
						seen[c][i] = body
					}
				}
				if t.check(err) {
					rec(s)
				}
			}
		}
	}
	var nextBatch atomic.Int64
	batch := func(deadline time.Time) func(c int, rec func(opSample)) {
		return func(c int, rec func(opSample)) {
			for time.Now().Before(deadline) || nextBatch.Load() < digestBatches {
				i := int(nextBatch.Add(1) - 1)
				if i >= len(in.batches) {
					return
				}
				s, body, err := tg.submit(in.batches[i].body)
				if err == nil {
					err = checkBatch(body, in.batches[i])
				}
				if t.check(err) {
					rec(s)
				}
			}
		}
	}

	coldWin := func(lo, hi int) error {
		wall, err := window("cold", &pr.cold, cold(lo, hi))
		pr.coldWindows = append(pr.coldWindows, coldWindow{lo, hi, wall})
		return err
	}
	if err := coldWin(0, in.nHit); err != nil {
		return nil, err
	}
	chunk := (len(in.cold) - in.nHit) / rounds
	for r := 0; r < rounds; r++ {
		lo := in.nHit + r*chunk
		if err := coldWin(lo, lo+chunk); err != nil {
			return nil, err
		}
		if _, err := window("hit", &pr.hit, hit(time.Now().Add(hitDur/rounds))); err != nil {
			return nil, err
		}
		if _, err := window("batch", &pr.batch, batch(time.Now().Add(batchDur/rounds))); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// verifyPass checks the bytes the daemon served: the digest of the cold
// results and the leading batches' cells (pinned at the default seed),
// and a few cells recomputed in this process, at any seed.
func verifyPass(tg target, t *tally, in *serviceInputs, pr *passResult) {
	h := sha256.New()
	for i, c := range in.cold {
		h.Write([]byte(c.key))
		h.Write(pr.coldResults[i])
	}
	var direct []cellInput
	var directWant [][]byte
	for j := 0; j < digestBatches; j++ {
		for _, c := range in.batches[j].cells {
			b, err := tg.get("/v1/jobs/" + c.key + "/result")
			if !t.check(err) {
				continue
			}
			h.Write([]byte(c.key))
			h.Write(b)
			if j == 0 {
				direct, directWant = append(direct, c), append(directWant, b)
			}
		}
	}
	if in.seed == defaultSeed {
		var err error
		if got := hex.EncodeToString(h.Sum(nil)); got != pinnedService {
			err = fmt.Errorf("service results: %w: %s", errDigest, got)
		}
		t.check(err)
	}
	for i := 0; i < 4; i++ {
		direct, directWant = append(direct, in.cold[i]), append(directWant, pr.coldResults[i])
	}
	for i, c := range direct {
		b, err := runDirect(c.req)
		if err == nil && !bytes.Equal(b, directWant[i]) {
			err = fmt.Errorf("job %s: served bytes differ from a direct run", c.key)
		}
		t.check(err)
	}
}

// runDirect computes a cell's result bytes the way the daemon's cell
// runner does: config.Default() with the request's plan and techniques.
func runDirect(req service.Request) ([]byte, error) {
	req = req.Normalize()
	cfg := config.Default()
	cfg.Plan = req.Plan
	cfg.Techniques = req.Techniques
	s, err := sim.NewByName(cfg, req.Benchmark)
	if err != nil {
		return nil, err
	}
	s.WarmupInstructions = req.Warmup
	return json.Marshal(s.RunCycles(req.Cycles))
}

// guard fails a run that ended degraded: a disk slow or failing enough
// to open a breaker, skip the journal, degrade the cache, or force a
// retry or a shed would otherwise change silently what was measured.
func guard(m service.Metrics) error {
	var bad []string
	if m.CacheBreaker.State != "closed" {
		bad = append(bad, "cache breaker "+m.CacheBreaker.State)
	}
	if m.JournalBreaker.State != "closed" {
		bad = append(bad, "journal breaker "+m.JournalBreaker.State)
	}
	for name, n := range map[string]uint64{
		"journal_skipped": m.JournalSkipped, "cache_degraded": uint64(m.CacheDegraded),
		"jobs_retried": m.JobsRetried, "jobs_failed": m.JobsFailed, "jobs_shed_expired": m.JobsShedExpired,
		"jobs_shed_admission": m.JobsShedAdmission,
	} {
		if n > 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", name, n))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("daemon ended degraded: %s", strings.Join(bad, ", "))
	}
	return nil
}

// daemon is one pipethermd process with its own cache and journal.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
}

// startDaemon execs pipethermd in a fresh directory and returns once
// /readyz answers 200, with the time that took.
func startDaemon(o options) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(o.scratch, "svc-")
	if err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	cmd := exec.Command(o.daemon,
		"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(o.par),
		"-cache-entries", strconv.Itoa(cacheEntries),
		"-cache-dir", filepath.Join(dir, "cache"), "-journal-dir", filepath.Join(dir, "journal"))
	cmd.Stdout = &addrWatcher{ch: addr}
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, dir: dir}
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("pipethermd did not report its address")
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("pipethermd not ready: %v", err)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it, removes its
// directory and returns its peak RSS.
func (d *daemon) stop() (float64, error) {
	defer d.kill()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("pipethermd: %w", err)
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for pipethermd")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// kill ends the daemon if it still runs and removes its directory.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
	os.RemoveAll(d.dir)
}

// addrWatcher scans the daemon's stdout for its listen address.
type addrWatcher struct {
	buf  []byte
	ch   chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	const prefix = "pipethermd listening on http://"
	w.buf = append(w.buf, p...)
	for {
		line, rest, ok := bytes.Cut(w.buf, []byte("\n"))
		if !ok {
			return len(p), nil
		}
		if a, found := strings.CutPrefix(string(line), prefix); found && !w.sent {
			w.ch <- a
			w.sent = true
		}
		w.buf = rest
	}
}

// phaseTimes splits the measured time: the cold phase runs a fixed
// cell count, then hits and batches share the budget.
func phaseTimes(d time.Duration) (hit, batch time.Duration) { return d / 4, d / 2 }

func runService(o options, t *tally) (metrics, error) {
	in, err := genInputs(o.seed, hitKeys, rounds*roundCold)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceService(o, t, in)
	}
	// The load generator allocates per request; collecting less often
	// keeps its CPU off the cores the daemon runs on.
	debug.SetGCPercent(400)
	var setups []float64
	var d *daemon
	for k := 0; k < 21; k++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		var setup time.Duration
		if d, setup, err = startDaemon(o); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer d.kill()
	tg := newTarget(d.base, o.par)
	hitDur, batchDur := phaseTimes(o.duration)
	pr, err := servicePass(tg, t, in, o.par, hitDur, batchDur)
	if err != nil {
		return nil, err
	}
	verifyPass(tg, t, in, pr)
	t.check(guard(pr.last))
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	var rates, mips []float64
	for _, w := range pr.coldWindows {
		sums, err := simSum(pr.coldResults[w.lo:w.hi])
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(w.hi-w.lo)/w.wall.Seconds())
		mips = append(mips, sums.committedMinst/w.wall.Seconds())
	}
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("peak_rss_mb", "MiB", rss)
	m.set("ops_per_s", "1/s", median(rates))
	m.set("sim_mips", "Minst/s", median(mips))
	hit, cold, batch := rttMs(pr.hit), rttMs(pr.cold), rttMs(pr.batch)
	m.set("request_p50_ms", "ms", median(hit))
	m.set("hit_rtt_p99_ms", "ms", calmP99(pr.hitWindows))
	m.set("cold_rtt_p50_ms", "ms", median(cold))
	m.set("cold_rtt_p90_ms", "ms", quantile(cold, 0.9))
	m.set("batch_rtt_p50_ms", "ms", median(batch))
	return m, nil
}

// simSums totals the simulated statistics of a set of cells.
type simSums struct {
	committedMinst, stallCycles, dtmActions float64
}

// coldWindow is one cold window: the cold cells lo..hi-1 and its wall
// time.
type coldWindow struct {
	lo, hi int
	wall   time.Duration
}

// simSum totals the cells the daemon simulated, from the result bytes
// it served.
func simSum(results [][]byte) (simSums, error) {
	var s simSums
	for i, b := range results {
		var r sim.Result
		if err := json.Unmarshal(b, &r); err != nil {
			return s, fmt.Errorf("cold result %d: %w", i, err)
		}
		s.committedMinst += float64(r.Committed) / 1e6
		s.stallCycles += float64(r.StallCycles)
		s.dtmActions += float64(dtmActions(&r))
	}
	return s, nil
}

// hitWindow is one hit window's round trips (ms) and the share of host
// CPU the hypervisor stole while it ran.
type hitWindow struct {
	rtt   []float64
	steal float64
}

// calmSteal is the most CPU the hypervisor may steal during a hit window
// for the window to count towards the hit p99.
const calmSteal = 0.02

// calmP99 is the mean over the hit windows in which the hypervisor stole
// at most calmSteal of their p99 round trips, or the least-stolen
// window's p99 if none was that calm. The tail tracks stolen CPU (on a
// 2-vCPU VM the window p99 went from about 1.3 ms to 6 ms as steal went
// from 0 to 20%), and steal comes and goes within a run. Windows are
// chosen by steal, which the program does not cause, so a stall of the
// program's own shows in the calm windows as often as in the others; the
// mean, unlike a pooled p99, lets no single calm window set the figure.
func calmP99(ws []hitWindow) float64 {
	var p99s []float64
	least := ws[0]
	for _, w := range ws {
		if w.steal <= calmSteal {
			p99s = append(p99s, quantile(w.rtt, 0.99))
		}
		if w.steal < least.steal {
			least = w
		}
	}
	if p99s == nil {
		return quantile(least.rtt, 0.99)
	}
	var sum float64
	for _, p := range p99s {
		sum += p
	}
	return sum / float64(len(p99s))
}

func rttMs(s []opSample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.rtt) / float64(time.Millisecond)
	}
	return out
}
