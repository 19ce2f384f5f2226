package core

import (
	"testing"
)

// TestMixedGroupLevel3AppendsSlabs: datasets of different global sizes
// in one level-3 file land back to back, each slab at the file's next
// byte, read and written through its view displaced to that offset.
func TestMixedGroupLevel3AppendsSlabs(t *testing.T) {
	const nRanks = 2
	te := newTestEnv(nRanks)
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		g, err := s.SetAttributes([]Attr{
			{Name: "small", GlobalSize: 8, Type: Double},
			{Name: "large", GlobalSize: 20, Type: Double},
		})
		if err != nil {
			panic(err)
		}
		mk := func(globalN int) []int32 {
			var m []int32
			for i := s.Comm().Rank(); i < globalN; i += nRanks {
				m = append(m, int32(i))
			}
			return m
		}
		ms, ml := mk(8), mk(20)
		if _, err := g.DataView([]string{"small"}, ms); err != nil {
			panic(err)
		}
		if _, err := g.DataView([]string{"large"}, ml); err != nil {
			panic(err)
		}
		fill := func(m []int32, base float64) []float64 {
			out := make([]float64, len(m))
			for i, gi := range m {
				out[i] = base + float64(gi)
			}
			return out
		}
		// Interleave writes across two timesteps; slabs append in call
		// order: small@0, large@64, small@224, large@288.
		if err := putAt(g, "small", 0, fill(ms, 100)); err != nil {
			panic(err)
		}
		if err := putAt(g, "large", 0, fill(ml, 200)); err != nil {
			panic(err)
		}
		if err := putAt(g, "small", 1, fill(ms, 300)); err != nil {
			panic(err)
		}
		if err := putAt(g, "large", 1, fill(ml, 400)); err != nil {
			panic(err)
		}
		// Read everything back through the same group.
		for _, tc := range []struct {
			name string
			ts   int64
			m    []int32
			base float64
		}{
			{"small", 0, ms, 100}, {"large", 0, ml, 200},
			{"small", 1, ms, 300}, {"large", 1, ml, 400},
		} {
			got, err := getAt(g, tc.name, tc.ts, len(tc.m))
			if err != nil {
				panic(err)
			}
			for i, gi := range tc.m {
				if got[i] != tc.base+float64(gi) {
					panic("mixed group read mismatch")
				}
			}
		}
	})
	// One file, with slabs at the appended offsets.
	var dataFile string
	for _, n := range te.fs.List() {
		dataFile = n
	}
	raw, err := te.fs.ReadFile(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != (8+20+8+20)*8 {
		t.Fatalf("file size %d", len(raw))
	}
	vals := bytesToFloat64s(raw)
	if vals[0] != 100 || vals[8] != 200 || vals[28] != 300 || vals[36] != 400 {
		t.Fatalf("slab layout wrong: %v %v %v %v", vals[0], vals[8], vals[28], vals[36])
	}
	// Execution table offsets match the appended layout.
	recs, _ := te.cat.WritesForRun(nil, 1)
	wantOffsets := map[string]map[int64]int64{
		"small": {0: 0, 1: 224},
		"large": {0: 64, 1: 288},
	}
	for _, rec := range recs {
		if want := wantOffsets[rec.Dataset][rec.Timestep]; rec.FileOffset != want {
			t.Fatalf("offset for %s@%d = %d, want %d", rec.Dataset, rec.Timestep, rec.FileOffset, want)
		}
	}
}

// TestSharedViewRejectsMismatchedDatasets: datasets with different
// sizes cannot share one view.
func TestSharedViewRejectsMismatchedDatasets(t *testing.T) {
	te := newTestEnv(1)
	te.run(t, Options{}, func(s *SDM) {
		g, err := s.SetAttributes([]Attr{
			{Name: "a", GlobalSize: 8, Type: Double},
			{Name: "b", GlobalSize: 9, Type: Double},
		})
		if err != nil {
			panic(err)
		}
		if _, err := g.DataView([]string{"a", "b"}, []int32{0}); err == nil {
			t.Error("mismatched shared view accepted")
		}
		if _, err := g.DataView(nil, []int32{0}); err == nil {
			t.Error("empty name list accepted")
		}
	})
}

func TestAnnotations(t *testing.T) {
	te := newTestEnv(3)
	te.run(t, Options{}, func(s *SDM) {
		if err := s.Annotate(s.RunID(), "prov", "solver", []byte("fun3d-v2")); err != nil {
			panic(err)
		}
		if err := s.Annotate(s.RunID(), "prov", "mesh", []byte("unit-cube")); err != nil {
			panic(err)
		}
		// Every rank receives the broadcast value.
		v, err := s.Annotation(s.RunID(), "prov", "solver")
		if err != nil || string(v) != "fun3d-v2" {
			panic("annotation round trip failed")
		}
		all, err := s.Annotations(s.RunID(), "prov")
		if err != nil || len(all) != 2 || string(all["mesh"]) != "unit-cube" {
			panic("annotation list failed")
		}
		if v, err := s.Annotation(s.RunID(), "prov", "missing"); err != nil || v != nil {
			panic("missing annotation should be nil")
		}
	})
}

func TestLevel2ReadBackAfterManySteps(t *testing.T) {
	// Level 2 appends many timesteps; non-sequential read-back exercises
	// slab arithmetic.
	te := newTestEnv(2)
	te.run(t, Options{Organization: Level2}, func(s *SDM) {
		g, _ := s.SetAttributes([]Attr{{Name: "d", GlobalSize: 10, Type: Double}})
		m := roundRobinMap(s.Comm().Rank(), 2, 10)
		_, _ = g.DataView([]string{"d"}, m)
		for ts := 0; ts < 7; ts++ {
			vals := make([]float64, len(m))
			for i := range vals {
				vals[i] = float64(ts*100 + i)
			}
			if err := putAt(g, "d", int64(ts), vals); err != nil {
				panic(err)
			}
		}
		// Read steps out of order.
		for _, ts := range []int64{5, 0, 6, 3} {
			got, err := getAt(g, "d", ts, len(m))
			if err != nil {
				panic(err)
			}
			for i := range got {
				if got[i] != float64(int(ts)*100+i) {
					panic("out-of-order read mismatch")
				}
			}
		}
	})
}

func TestBlockRange(t *testing.T) {
	cases := []struct {
		n          int64
		p, r       int
		start, cnt int64
	}{
		{10, 3, 0, 0, 4}, {10, 3, 1, 4, 3}, {10, 3, 2, 7, 3},
		{4, 8, 0, 0, 1}, {4, 8, 5, 4, 0}, {0, 2, 1, 0, 0},
	}
	for _, tc := range cases {
		s, c := blockRange(tc.n, tc.p, tc.r)
		if s != tc.start || c != tc.cnt {
			t.Errorf("blockRange(%d,%d,%d) = (%d,%d), want (%d,%d)",
				tc.n, tc.p, tc.r, s, c, tc.start, tc.cnt)
		}
	}
}
