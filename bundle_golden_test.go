package sdm

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sdm/internal/store"
	"sdm/internal/store/objstore"
)

// testdata/format1 was written by the commit before store.Spec replaced
// the four declarations of the spec fields (PR 21's parent): a MANIFEST.json
// per backend kind, and two bundle directories whose second save
// (crashOldFiles → crashNewFiles) was killed after its commit record
// (wal-sealed, dir) and before it (wal-unsealed, cas). wal-migrate-delta
// was written by commit b8a8662, the last whose MigrateBundle copied only
// an execution-table delta: a dir bundle holding crashOldFiles was
// re-migrated from a source holding crashNewFiles and killed after its
// commit record. Its log puts a.dat and new.dat only; its manifest also
// names keep.dat, which that migration kept in place. The tests below
// pin that this build reads them, and writes the same JSON keys for the
// same options.
const goldenFormat1 = "testdata/format1"

var goldenOpts = map[string]BundleOptions{
	"dir": {Backend: "dir"},
	"cas": {Backend: "cas", Compress: true, ChunkSize: 512},
	"obj": {Backend: "obj", Endpoint: "sim://golden-format1", PartSize: 1 << 20},
}

// jsonKeys lists an object's keys, and under "k[]" those of the first
// element of each array of objects.
func jsonKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, raw)
	}
	var keys []string
	for k, v := range obj {
		keys = append(keys, k)
		var elems []map[string]json.RawMessage
		if json.Unmarshal(v, &elems) == nil && len(elems) > 0 {
			for ek := range elems[0] {
				keys = append(keys, k+"[]."+ek)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func TestGoldenManifests(t *testing.T) {
	for kind, opts := range goldenOpts {
		t.Run(kind, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join(goldenFormat1, "manifest-"+kind+".json"))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, bundleManifestName), golden, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := readManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if m.Spec != opts.spec() {
				t.Errorf("golden manifest names store %+v, its save asked for %+v", m.Spec, opts.spec())
			}
			if want := []bundleFile{{"a.dat", 3000}, {"gone.dat", 700}, {"keep.dat", 1500}}; !reflect.DeepEqual(m.Files, want) {
				t.Errorf("golden inventory = %v, want %v", m.Files, want)
			}

			defer objstore.Drop(opts.Endpoint)
			fresh := filepath.Join(t.TempDir(), "bundle")
			if err := crashCluster(t, crashOldFiles(), "old").SaveBundleOpts(fresh, opts); err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(filepath.Join(fresh, bundleManifestName))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := jsonKeys(t, written), jsonKeys(t, golden); !reflect.DeepEqual(got, want) {
				t.Errorf("manifest keys written now %v, by the parent %v", got, want)
			}
		})
	}
}

func TestGoldenWAL(t *testing.T) {
	for name, c := range map[string]struct {
		opts      BundleOptions
		sealed    bool
		action    string
		wantFiles map[string][]byte
		wantMark  string
	}{
		"wal-sealed":   {goldenOpts["dir"], true, "rolled-forward", crashNewFiles(), "new"},
		"wal-unsealed": {goldenOpts["cas"], false, "rolled-back", crashOldFiles(), "old"},
		// Rolling forward must keep what the manifest names but no put
		// stages: applyWAL's keep-set is their union.
		"wal-migrate-delta": {goldenOpts["dir"], true, "rolled-forward", crashNewFiles(), "new"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "bundle")
			copyTree(t, filepath.Join(goldenFormat1, name), dir)
			recs, sealed, err := store.ReadWAL(filepath.Join(dir, bundleWALName))
			if err != nil || sealed != c.sealed || len(recs) == 0 || recs[0].Type != store.WALBegin {
				t.Fatalf("golden log: %d records, sealed=%v, err=%v", len(recs), sealed, err)
			}
			var begin store.WALBeginRecord
			if err := recs[0].Decode(&begin); err != nil {
				t.Fatal(err)
			}
			if begin.Format != bundleFormat || begin.Spec != c.opts.spec() {
				t.Errorf("golden begin record = %+v, its save asked for %+v", begin, c.opts.spec())
			}

			// The begin record this build writes for the same options.
			fresh := filepath.Join(t.TempDir(), "bundle")
			opts := c.opts
			opts.crashFn = func(string) error { return errInjectedCrash }
			if err := crashCluster(t, crashOldFiles(), "old").SaveBundleOpts(fresh, opts); err != errInjectedCrash {
				t.Fatalf("save killed at its first boundary = %v", err)
			}
			now, _, err := store.ReadWAL(filepath.Join(fresh, bundleWALName))
			if err != nil || len(now) != 1 {
				t.Fatalf("fresh log: %d records, err=%v", len(now), err)
			}
			if got, want := jsonKeys(t, now[0].Payload), jsonKeys(t, recs[0].Payload); !reflect.DeepEqual(got, want) {
				t.Errorf("begin record keys written now %v, by the parent %v", got, want)
			}

			rep := &FsckReport{}
			mu := bundleLock(dir)
			mu.Lock()
			err = recoverBundleLocked(dir, rep)
			mu.Unlock()
			if err != nil || rep.WALAction != c.action {
				t.Fatalf("recovery %q, err=%v; want %q", rep.WALAction, err, c.action)
			}
			files, mark := readBundleState(t, dir)
			if !sameFiles(files, c.wantFiles) || mark != c.wantMark {
				t.Errorf("recovered to marker %q with %d files, want %q", mark, len(files), c.wantMark)
			}
			assertFsckClean(t, dir, name)
		})
	}
}

// FuzzReadManifest: whatever the bytes, readManifest returns a
// *ManifestError or a format-1 manifest that this build's own encoding
// reads back unchanged.
func FuzzReadManifest(f *testing.F) {
	for kind := range goldenOpts {
		golden, err := os.ReadFile(filepath.Join(goldenFormat1, "manifest-"+kind+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		f.Add(golden[:len(golden)/2])
	}
	f.Add([]byte(`{"format":2,"backend":"dir","files":[]}`))
	f.Add([]byte(`{"format":1,"backend":"cas","chunk_size":-1,"files":[{"name":".wal~x","size":-5}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, bundleManifestName), in, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(dir)
		if err != nil {
			var me *ManifestError
			if !errors.As(err, &me) {
				t.Fatalf("readManifest = %T %v, want *ManifestError", err, err)
			}
			return
		}
		if m.Format != bundleFormat {
			t.Fatalf("accepted format %d", m.Format)
		}
		raw, err := m.encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, bundleManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := readManifest(dir)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded manifest reads back as %+v (err %v), was %+v", again, err, m)
		}
	})
}

// TestMigrateDistrustsManifestSizes: a source manifest's sizes are input
// from outside the program (FuzzReadManifest accepts any integer), so a
// migration must not size a buffer by one the store does not confirm.
func TestMigrateDistrustsManifestSizes(t *testing.T) {
	for _, lie := range []string{"-5", "1152921504606846976"} {
		src := filepath.Join(t.TempDir(), "src")
		if err := crashCluster(t, crashOldFiles(), "v").SaveBundleOpts(src, goldenOpts["dir"]); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(src, bundleManifestName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.Replace(raw, []byte(`"size": 3000`), []byte(`"size": `+lie), 1)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = MigrateBundle(src, filepath.Join(t.TempDir(), "dst"), goldenOpts["dir"])
		if err == nil || !strings.Contains(err.Error(), "manifest says "+lie) {
			t.Errorf("migrating a source whose manifest claims size %s = %v, want a refusal naming it", lie, err)
		}
	}
}
