package core

import (
	"math/rand"
	"sync"
	"testing"

	"deepsea/internal/faults"
)

// TestConcurrentProcessQuery hammers one shared DeepSea instance from
// several goroutines. Every answer must equal the vanilla engine's
// result for the same query, and after the storm the pool's incremental
// size counter, its deep structures, and the file system must all
// agree. Run under -race this is the concurrency suite's anchor test.
func TestConcurrentProcessQuery(t *testing.T) {
	const (
		goroutines = 8
		perG       = 15
	)
	type qr struct{ lo, hi int64 }
	rng := rand.New(rand.NewSource(99))
	queries := make([]qr, goroutines*perG)
	for i := range queries {
		width := rng.Int63n(2500) + 200
		lo := rng.Int63n(testDomHi - width)
		queries[i] = qr{lo, lo + width}
	}

	// Vanilla reference answers, computed sequentially.
	vanilla := newTestSystem(t, func(c *Config) { c.Materialize = false })
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = run(t, vanilla, q30(q.lo, q.hi)).Result.Fingerprint()
	}

	d := newTestSystem(t, func(c *Config) { c.Smax = 3 << 30 })
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * perG; i < (g+1)*perG; i++ {
				rep, err := d.ProcessQuery(q30(queries[i].lo, queries[i].hi))
				if err != nil {
					errs <- err
					return
				}
				if got := rep.Result.Fingerprint(); got != want[i] {
					t.Errorf("query %d: concurrent result differs from vanilla", i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := d.Pool.VerifySize(); err != nil {
		t.Error(err)
	}
	for _, pv := range d.Pool.Views() {
		for _, part := range pv.Parts {
			if err := part.Validate(); err != nil {
				t.Error(err)
			}
			for _, f := range part.Fragments() {
				if !d.Eng.FS().Exists(f.Path) {
					t.Errorf("pool references missing file %s", f.Path)
				}
			}
		}
	}
	if fs, pool := d.Eng.FS().TotalSize(), d.Pool.TotalSize(); fs != pool {
		t.Errorf("FS size %d != pool size %d", fs, pool)
	}
	if len(d.pinned) != 0 {
		t.Errorf("pins leaked: %v", d.pinned)
	}
}

// TestSequentialWorkloadDeterministicAcrossParallelism runs the same
// workload on fresh systems at parallelism 1 and 8 and demands exactly
// equal result rows and pool contents — the byte-identical guarantee of
// the chunked data path. A third run with a fault injector armed at
// zero probability on every site must change nothing either.
func TestSequentialWorkloadDeterministicAcrossParallelism(t *testing.T) {
	type qr struct{ lo, hi int64 }
	rng := rand.New(rand.NewSource(5))
	queries := make([]qr, 25)
	for i := range queries {
		width := rng.Int63n(2000) + 100
		lo := rng.Int63n(testDomHi - width)
		queries[i] = qr{lo, lo + width}
	}

	type outcome struct {
		results []string
		files   map[string]int64
	}
	runAll := func(par int, fc *faults.Config) outcome {
		d := newTestSystem(t, func(c *Config) {
			c.Smax = 3 << 30
			c.Parallelism = par
			c.Faults = fc
		})
		var o outcome
		for _, q := range queries {
			rep := run(t, d, q30(q.lo, q.hi))
			o.results = append(o.results, rep.Result.Fingerprint())
		}
		o.files = make(map[string]int64)
		for _, f := range d.Eng.FS().List() {
			o.files[f.Path] = f.Size
		}
		return o
	}

	seq := runAll(1, nil)
	for _, arm := range []struct {
		name string
		fc   *faults.Config
	}{
		{"parallelism 8", nil},
		{"zero-rate injector", &faults.Config{Seed: 1}},
	} {
		got := runAll(8, arm.fc)
		for i := range seq.results {
			if seq.results[i] != got.results[i] {
				t.Errorf("query %d: %s changed the result", i, arm.name)
			}
		}
		if len(seq.files) != len(got.files) {
			t.Fatalf("%s: file count %d, sequential run has %d", arm.name, len(got.files), len(seq.files))
		}
		for path, size := range seq.files {
			if got.files[path] != size {
				t.Errorf("%s: file %s has size %d, sequential run %d", arm.name, path, got.files[path], size)
			}
		}
	}
}
