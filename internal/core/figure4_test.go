package core

import (
	"testing"
	"testing/quick"

	"sdm/internal/mpi"
)

// TestCatalogFlowMatchesFigure4 replays the paper's Figure 4 execution
// flow on a small FUN3D-style run and asserts that every one of the six
// metadata tables ends up with the rows the figure shows.
func TestCatalogFlowMatchesFigure4(t *testing.T) {
	const nRanks = 2
	te := newTestEnv(nRanks)
	m, layout := stageMesh(t, te.fs, 2, 2, 2)
	partVec := make([]int32, m.NumNodes())
	for i := range partVec {
		partVec[i] = int32(i % nRanks)
	}
	te.run(t, Options{Organization: Level2}, func(s *SDM) {
		// Initialization: run_table + access_pattern_table.
		attrs := MakeDatalist("p", "q")
		for i := range attrs {
			attrs[i].GlobalSize = int64(m.NumNodes())
		}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		// Partitioning: import_table, index_table, index_history_table.
		imp, err := s.MakeImportlist("uns3d.msh", edgeSpecs(layout))
		if err != nil {
			panic(err)
		}
		// import_table populated while the import list is live.
		if s.Comm().Rank() == 0 {
			entries, err := te.cat.Imports(nil, s.RunID())
			if err != nil || len(entries) != 4 {
				panic("import_table should hold 4 rows during the import")
			}
			for _, e := range entries {
				if e.Partition != "DISTRIBUTED" || e.StorageOrder != "ROW_MAJOR" {
					panic("import_table row missing figure-4 metadata")
				}
			}
			byName := map[string]string{}
			for _, e := range entries {
				byName[e.ImportedName] = e.FileContent
			}
			if byName["edge1"] != "INDEX" || byName["x"] != "DATA" {
				panic("file_content tags wrong")
			}
		}
		s.Comm().Barrier()
		ip, err := s.PartitionIndex(imp, "edge1", "edge2", partVec)
		if err != nil {
			panic(err)
		}
		if err := s.IndexRegistry(ip, layout.NumEdges, partVec); err != nil {
			panic(err)
		}
		if err := imp.Release(); err != nil {
			panic(err)
		}
		// Computation + writing results: execution_table.
		if _, err := g.DataView([]string{"p", "q"}, ip.OwnedNodes); err != nil {
			panic(err)
		}
		buf := make([]float64, len(ip.OwnedNodes))
		for _, ts := range []int64{0, 10, 20} {
			if err := putAt(g, "p", ts, buf); err != nil {
				panic(err)
			}
			if err := putAt(g, "q", ts, buf); err != nil {
				panic(err)
			}
		}
	})

	// run_table: one run with the application name.
	runs, err := te.cat.Runs(nil)
	if err != nil || len(runs) != 1 || runs[0].Application != "testapp" {
		t.Fatalf("run_table: %+v, %v", runs, err)
	}
	// access_pattern_table: p and q as IRREGULAR DOUBLE ROW_MAJOR.
	infos, err := te.cat.Datasets(nil, 1)
	if err != nil || len(infos) != 2 {
		t.Fatalf("access_pattern_table: %+v, %v", infos, err)
	}
	for _, d := range infos {
		if d.AccessPattern != "IRREGULAR" || d.DataType != "DOUBLE" || d.StorageOrder != "ROW_MAJOR" {
			t.Fatalf("dataset row = %+v", d)
		}
	}
	// import_table: released at the end (the paper frees the structures).
	if entries, _ := te.cat.Imports(nil, 1); len(entries) != 0 {
		t.Fatalf("import_table not released: %+v", entries)
	}
	// index_table + index_history_table: one history, per-rank sizes.
	hist, err := te.cat.LookupIndexHistory(nil, layout.NumEdges, nRanks)
	if err != nil || hist == nil {
		t.Fatalf("index_table: %v, %v", hist, err)
	}
	if len(hist.EdgeSizes) != nRanks || hist.EdgeSizes[0] == 0 {
		t.Fatalf("index_history_table sizes = %v", hist.EdgeSizes)
	}
	// execution_table: 2 datasets x 3 timesteps with level-2 offsets.
	recs, err := te.cat.WritesForRun(nil, 1)
	if err != nil || len(recs) != 6 {
		t.Fatalf("execution_table: %d rows, %v", len(recs), err)
	}
	slab := int64(m.NumNodes()) * 8
	for _, rec := range recs {
		wantOff := rec.Timestep / 10 * slab
		if rec.FileOffset != wantOff {
			t.Fatalf("execution row %+v: offset want %d", rec, wantOff)
		}
	}
}

// TestWriteReadPropertyAcrossLevels: random rank counts, global sizes,
// and permuted views must round-trip under every file organization.
func TestWriteReadPropertyAcrossLevels(t *testing.T) {
	f := func(seed int64, ranksRaw, sizeRaw, levelRaw uint8) bool {
		nRanks := int(ranksRaw%4) + 1
		globalN := int(sizeRaw%50) + nRanks // at least one element per rank
		level := []FileOrganization{Level1, Level2, Level3}[int(levelRaw)%3]
		// Deterministic random permutation of global indices.
		perm := make([]int32, globalN)
		for i := range perm {
			perm[i] = int32(i)
		}
		s := uint64(seed)*2862933555777941757 + 3037000493
		for i := globalN - 1; i > 0; i-- {
			s = s*2862933555777941757 + 3037000493
			j := int(s % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		te := newTestEnv(nRanks)
		ok := true
		err := te.run2(Options{Organization: level}, func(sm *SDM) {
			g, err := sm.SetAttributes([]Attr{{Name: "d", GlobalSize: int64(globalN), Type: Double}})
			if err != nil {
				panic(err)
			}
			// Rank r takes the permutation slice r, r+nRanks, ...
			var m []int32
			for i := sm.Comm().Rank(); i < globalN; i += nRanks {
				m = append(m, perm[i])
			}
			if _, err := g.DataView([]string{"d"}, m); err != nil {
				panic(err)
			}
			vals := make([]float64, len(m))
			for i, gi := range m {
				vals[i] = float64(gi) + 0.25
			}
			if err := putAt(g, "d", 0, vals); err != nil {
				panic(err)
			}
			got, err := getAt(g, "d", 0, len(m))
			if err != nil {
				panic(err)
			}
			for i := range vals {
				if got[i] != vals[i] {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// run2 is testEnv.run without *testing.T, for property functions that
// report success as a bool instead of failing the test directly.
func (te *testEnv) run2(opts Options, fn func(*SDM)) error {
	return te.world.Run(func(c *mpi.Comm) {
		s, err := Initialize(Env{Comm: c, FS: te.fs, Catalog: te.cat}, "prop", opts)
		if err != nil {
			panic(err)
		}
		fn(s)
		if err := s.Finalize(); err != nil {
			panic(err)
		}
	})
}
