package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments_short_seed1.golden from this run")

// TestExperimentsGolden runs every registered experiment at short scale
// with seed 1 and demands the printed output byte-identical to the
// committed golden file: simulated seconds depend on nothing but the
// cost model and Algorithm 1's decisions, so any diff is a behaviour
// change. Regenerate with `go test ./internal/bench -run
// TestExperimentsGolden -update` only for a change that means to move
// the numbers.
func TestExperimentsGolden(t *testing.T) {
	p := Short()
	p.Seed = 1
	var got bytes.Buffer
	for _, e := range Experiments {
		if err := RunAndPrint(&got, e.ID, p); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "experiments_short_seed1.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("experiment output diverges from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("experiment output has %d lines, %s has %d", len(gl), path, len(wl))
}
