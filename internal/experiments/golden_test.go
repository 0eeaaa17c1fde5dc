package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/name, or rewrites that file
// when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (regenerate with -update if the change is intended)\n--- want ---\n%s--- got ---\n%s",
			golden, want, got)
	}
}

// digestLine renders "<sha256>  <name>\n" over json.Marshal(v). The
// report goldens round to three decimals; the digest pins every float
// of the result at full precision, so a last-bit drift cannot pass
// unnoticed.
func digestLine(t *testing.T, name string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x  %s\n", sha256.Sum256(b), name)
}

// TestGoldenFig6Short pins the paper-facing report bytes for a fixed
// short Fig6 run, plus a full-precision SHA-256 per cell. Any PR that
// shifts IPC, stall counts, speedups, temperatures or any other result
// field — deliberately or not — fails here and must regenerate the
// golden files with:
//
//	go test ./internal/experiments -run TestGoldenFig6Short -update
//
// The run uses the default (auto) parallelism: the determinism tests
// guarantee the bytes are identical at every worker count, so this also
// exercises the parallel path on multi-core CI.
func TestGoldenFig6Short(t *testing.T) {
	spec := fast(Fig6(testCycles, "art", "eon", "gzip"))
	m, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both report styles over the same matrix: the figure table (IPC,
	// stalls, speedups) and the Table-4-style half-temperature table.
	checkGolden(t, "fig6_short.golden", m.FigureReport()+"\n"+m.Table4Report())

	var sums strings.Builder
	for _, c := range m.Cells {
		sums.WriteString(digestLine(t, c.Benchmark+"/"+c.Variant, c))
	}
	checkGolden(t, "fig6_short.sha256", sums.String())
}
