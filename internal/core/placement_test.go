package core

import (
	"fmt"
	"testing"

	"sdm/internal/obs"
	"sdm/internal/pfs"
)

// Tests of step placement: a flush places its files as one set, so a
// step's small files land one per rank and evenly over the I/O servers,
// while a step of one file lands where its name hash puts it.

// placement is where a run's files landed, read from its trace: the
// ranks that opened each file and the servers that served it.
type placement struct {
	openers map[string][]int // file -> ranks that opened it
	servers map[string][]int // file -> servers that served a request of it
	opens   map[int]int      // rank -> opens
	serves  map[int]int      // server -> requests
}

func placementOf(tr *obs.Tracer) placement {
	p := placement{openers: map[string][]int{}, servers: map[string][]int{}, opens: map[int]int{}, serves: map[int]int{}}
	file := func(sp obs.Span) string {
		for _, kv := range sp.Args {
			if kv.Key == "file" {
				return kv.Val
			}
		}
		return ""
	}
	for _, sp := range tr.Spans() {
		switch {
		case sp.Cat == "mpiio" && sp.Name == "open":
			p.openers[file(sp)] = append(p.openers[file(sp)], sp.Pid-obs.PidRank(0))
			p.opens[sp.Pid-obs.PidRank(0)]++
		case sp.Pid == obs.PidServers && sp.Name == "serve":
			p.servers[file(sp)] = append(p.servers[file(sp)], sp.Tid)
			p.serves[sp.Tid]++
		}
	}
	return p
}

// TestStepPlacementSpreadsFiles: sixteen one-stripe Level-1 datasets
// written in one step on 16 ranks and 10 servers. Each rank opens exactly
// one of the step's files and no server serves more than two of them —
// the cursor's walk from the first file's name hash — and the bytes are
// those of the same data written one dataset per step, where each file,
// alone in its step, lands where its name hash puts it.
func TestStepPlacementSpreadsFiles(t *testing.T) {
	const n, nsets, elems = 16, 16, 512 // 4 KiB per dataset: one stripe, one aggregator
	run := func(oneStep bool) (*testEnv, placement, []string) {
		te := newCostedEnv(n)
		tr := obs.NewTracer()
		te.fs.SetTracer(tr)
		var files []string
		te.run(t, Options{Organization: Level1}, func(s *SDM) {
			names := make([]string, nsets)
			for i := range names {
				names[i] = fmt.Sprintf("d%02d", i)
			}
			attrs := MakeDatalist(names...)
			for i := range attrs {
				attrs[i].GlobalSize = elems
			}
			g, err := s.SetAttributes(attrs)
			if err != nil {
				panic(err)
			}
			m := roundRobinMap(s.env.Comm.Rank(), n, elems)
			if _, err := g.DataView(names, m); err != nil {
				panic(err)
			}
			if oneStep {
				if err := s.BeginStep(0); err != nil {
					panic(err)
				}
			}
			for i, name := range names {
				d, err := DatasetOf[float64](g, name)
				if err != nil {
					panic(err)
				}
				vals := make([]float64, len(m))
				for j, gi := range m {
					vals[j] = scriptValue(i, 0, int(gi))
				}
				if oneStep {
					err = d.Put(vals)
				} else {
					err = d.PutAt(0, vals)
				}
				if err != nil {
					panic(err)
				}
				if s.env.Comm.Rank() == 0 {
					files = append(files, g.fileFor(i, 0))
				}
			}
			if oneStep {
				if err := s.EndStep(); err != nil {
					panic(err)
				}
			}
		})
		return te, placementOf(tr), files
	}

	step, at, files := run(true)
	alone, atAlone, _ := run(false)
	sameFiles(t, step.fs, alone.fs)
	if a, b := step.fs.Stats(), alone.fs.Stats(); a.Opens != b.Opens || a.WriteReqs != b.WriteReqs || a.BytesWritten != b.BytesWritten || a.Views != b.Views {
		t.Fatalf("one step and one dataset per step differ in work:\n%+v\n%+v", a, b)
	}

	servers := pfs.DefaultConfig().NumServers
	for r := 0; r < n; r++ {
		if at.opens[r] != 1 {
			t.Errorf("rank %d opened %d of the step's files, want 1 (%v)", r, at.opens[r], at.opens)
		}
	}
	for srv, reqs := range at.serves {
		if reqs > 2 {
			t.Errorf("server %d served %d write requests of the step, want at most 2 (%v)", srv, reqs, at.serves)
		}
	}
	// The rule itself: file k takes rank h+k and server h+k, h the first
	// file's name hash.
	h := pfs.NameHash(files[0])
	for k, f := range files {
		wantRank, wantServer := int((h%n+uint64(k))%n), int((h%uint64(servers)+uint64(k))%uint64(servers))
		if fmt.Sprint(at.openers[f]) != fmt.Sprint([]int{wantRank}) || fmt.Sprint(at.servers[f]) != fmt.Sprint([]int{wantServer}) {
			t.Errorf("file %d %s: opened by %v on servers %v, want rank %d and server %d",
				k, f, at.openers[f], at.servers[f], wantRank, wantServer)
		}
		// Alone in its step, a file is where its own name hash puts it.
		hf := pfs.NameHash(f)
		if fmt.Sprint(atAlone.openers[f]) != fmt.Sprint([]int{int(hf % n)}) || fmt.Sprint(atAlone.servers[f]) != fmt.Sprint([]int{int(hf % uint64(servers))}) {
			t.Errorf("one-file step %s: opened by %v on servers %v, want the name hash's rank %d and server %d",
				f, atAlone.openers[f], atAlone.servers[f], hf%n, hf%uint64(servers))
		}
	}
}
