package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuBuckets are the packages a profile's self time is folded into;
// anything else lands in "other".
var cpuBuckets = []string{
	"trace", "rng", "pipeline", "issueq", "seltree", "regfile", "cache", "bpred",
	"power", "thermal", "core", "sim", "multicore", "service", "journal",
	"net/http", "runtime",
}

// cumFuncs are functions whose cumulative share is reported on top of
// the self-time buckets.
var cumFuncs = map[string]string{
	"warmup_cum": "repro/internal/pipeline.(*Pipeline).Warmup",
	"cycle_cum":  "repro/internal/pipeline.(*Pipeline).Cycle",
}

// profileRun CPU-profiles fn in this process and folds the samples. The
// profile is written under dir.
func profileRun(dir string, fn func() error) (metrics, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return foldProfile(dir, buf.Bytes())
}

// foldProfile writes a pprof CPU profile under dir and turns it into
// cpu.<bucket> self shares and cpu.<cum> cumulative shares of all
// sampled CPU time.
func foldProfile(dir string, prof []byte) (metrics, error) {
	f, err := os.CreateTemp(dir, "cpu-*.pb.gz")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	samples, err := pprofTraces(f.Name())
	if err != nil {
		return nil, err
	}
	self := map[string]int64{}
	cum := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		if len(s.stack) > 0 {
			self[bucketOf(s.stack[0])] += s.value
		}
		for k, fn := range cumFuncs {
			for _, f := range s.stack {
				if f == fn {
					cum[k] += s.value
					break
				}
			}
		}
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	m := metrics{}
	for _, b := range append(cpuBuckets, "other") {
		m.set(cpuMetric(b), "frac", float64(self[b])/float64(total))
	}
	for k := range cumFuncs {
		m.set("cpu."+k, "frac", float64(cum[k])/float64(total))
	}
	return m, nil
}

// cpuMetric names a bucket's metric; metric names admit no '/'.
func cpuMetric(bucket string) string { return "cpu." + strings.ReplaceAll(bucket, "/", "_") }

// bucketOf maps a fully qualified function name to its cpu bucket.
func bucketOf(fn string) string {
	pkg := fn
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	pkg = strings.TrimPrefix(pkg, "repro/internal/")
	for _, b := range cpuBuckets {
		if pkg == b {
			return b
		}
	}
	return "other"
}

// sample is one distinct stack of a profile: its function names, leaf
// first (inlined frames expanded), and its CPU time in ns.
type sample struct {
	stack []string
	value int64
}

// pprofTraces lists a profile's stacks with `go tool pprof -traces`.
func pprofTraces(path string) ([]sample, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", "-unit=ns", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", filepath.Base(path), err, stderr.Bytes())
	}
	return parseTraces(out)
}

// parseTraces reads pprof's -traces text. After a header, each stack
// follows a "-----------+---" rule; its first line is the value and the
// leaf frame, and every further line one caller.
func parseTraces(out []byte) ([]sample, error) {
	var samples []sample
	var cur *sample
	head := false // the next line carries the stack's value
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			samples = append(samples, sample{})
			cur, head = &samples[len(samples)-1], true
			continue
		}
		if cur == nil || strings.TrimSpace(line) == "" {
			continue // header
		}
		frame := line
		if head {
			head = false
			v, fr, _ := strings.Cut(strings.TrimSpace(line), " ")
			n, err := strconv.ParseInt(strings.TrimSuffix(v, "ns"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			cur.value, frame = n, fr
		}
		if frame = strings.TrimSpace(frame); frame != "" {
			cur.stack = append(cur.stack, strings.TrimSuffix(frame, " (inline)"))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The rule after the last stack opens no stack of its own.
	if head {
		samples = samples[:len(samples)-1]
	}
	return samples, nil
}
