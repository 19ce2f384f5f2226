package sdm

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"sdm/internal/store/objstore"
	"sdm/meshgen"
	"sdm/partitioner"
)

// determinismCluster is a run whose catalog fills every table a save
// writes: a Level-1 checkpoint loop pipelined four deep (the shape of
// the rt-l1-pipe benchmark workload), an import list, and a registered
// index history.
func determinismCluster(t *testing.T) *Cluster {
	t.Helper()
	const procs = 4
	cl := NewCluster(ClusterConfig{Procs: procs})
	writeDemoRunOpts(t, cl, 512, 6, Options{Organization: Level1, StepPipelineDepth: 4})
	m, err := meshgen.GenerateTet(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	msh, layout, err := meshgen.EncodeMsh(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := partitioner.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := partitioner.Multilevel(graph, procs, partitioner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.StageFile("uns3d.msh", bytes.NewReader(msh)); err != nil {
		t.Fatal(err)
	}
	specs := []ImportSpec{
		{Name: "edge1", Type: Integer, FileOffset: layout.Edge1Offset(), Length: layout.NumEdges, Content: "INDEX"},
		{Name: "edge2", Type: Integer, FileOffset: layout.Edge2Offset(), Length: layout.NumEdges, Content: "INDEX"},
	}
	err = cl.Run(func(p *Proc) {
		s, err := p.Initialize("historydemo", Options{})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		imp, err := s.MakeImportlist("uns3d.msh", specs)
		if err != nil {
			t.Error(err)
			return
		}
		ip, err := s.PartitionIndex(imp, "edge1", "edge2", vec)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.IndexRegistry(ip, layout.NumEdges, vec); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// createdAt matches the one field of a bundle allowed to differ between
// two saves of one cluster: the manifest's wall-clock stamp.
var createdAt = regexp.MustCompile(`"created_at":\s*"[^"]*"`)

// storedBytes is everything a bundle at dir stores, by name: each host
// file under dir ("host/<path>", the manifest's created_at blanked) and,
// for a remote bundle, each object at its endpoint ("remote/<key>").
func storedBytes(t *testing.T, dir, endpoint string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if rel == bundleManifestName {
			data = createdAt.ReplaceAll(data, []byte(`"created_at":""`))
		}
		out["host/"+filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if endpoint == "" {
		return out
	}
	svc := objstore.Dial(endpoint)
	keys, more, err := svc.List("", "", 1<<20)
	if err != nil || more {
		t.Fatalf("listing %s: more=%v, %v", endpoint, more, err)
	}
	for _, k := range keys {
		size, _, err := svc.Head(k)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		if _, err := svc.Get(k, 0, data); err != nil {
			t.Fatal(err)
		}
		out["remote/"+k] = data
	}
	return out
}

// TestBundleBytesDependOnlyOnCluster: a bundle's bytes are a function of
// the cluster saved. One cluster saved twice into fresh directories
// stores the same bytes under the same names — catalog, manifest, data,
// and a remote bundle's objects — on every backend; only the manifest's
// created_at differs. (An obj bundle records its endpoint, so both
// saves use one endpoint, emptied in between.)
func TestBundleBytesDependOnlyOnCluster(t *testing.T) {
	cl := determinismCluster(t)
	for _, opts := range []BundleOptions{
		{Backend: "dir"},
		{Backend: "cas", Compress: true},
		{Backend: "obj", Endpoint: "sim://bundle-determinism", PartSize: 32 << 10},
	} {
		t.Run(opts.Backend, func(t *testing.T) {
			defer objstore.Drop(opts.Endpoint)
			var saves [2]map[string][]byte
			for i := range saves {
				objstore.Drop(opts.Endpoint)
				dir := filepath.Join(t.TempDir(), "bundle")
				if err := cl.SaveBundleOpts(dir, opts); err != nil {
					t.Fatal(err)
				}
				saves[i] = storedBytes(t, dir, opts.Endpoint)
			}
			var names []string
			for name := range saves[0] {
				names = append(names, name)
			}
			sort.Strings(names)
			if len(saves[0]) != len(saves[1]) {
				t.Errorf("the saves store %d and %d files", len(saves[0]), len(saves[1]))
			}
			for _, name := range names {
				b, ok := saves[1][name]
				if !ok {
					t.Errorf("%s: only the first save stores it", name)
				} else if !bytes.Equal(saves[0][name], b) {
					t.Errorf("%s: %d and %d bytes, not equal", name, len(saves[0][name]), len(b))
				}
			}
			if _, ok := saves[0]["host/"+bundleCatalogName]; !ok {
				t.Errorf("no %s stored", bundleCatalogName)
			}
		})
	}
}
