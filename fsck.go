package sdm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sdm/internal/metadb"
	"sdm/internal/store"
)

// FsckReport is the result of a bundle consistency check: what was
// verified, what is wrong, and — in repair mode — what was fixed. A
// bundle is healthy iff len(Errors) == 0.
type FsckReport struct {
	// WALPending reports that a wal.log was found (an interrupted
	// save); WALSealed whether it reached its commit point.
	WALPending bool
	WALSealed  bool
	// WALAction is what recovery did in repair mode: "rolled-forward",
	// "rolled-back", or "" when there was nothing to recover.
	WALAction string

	// Files and Bytes inventory the manifest's file set.
	Files int
	Bytes int64
	// Orphans counts backend objects (or cas chunk files) the manifest
	// does not account for.
	Orphans int

	// Errors are consistency violations; Repaired records fixes
	// applied in repair mode.
	Errors   []string
	Repaired []string
}

func (r *FsckReport) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *FsckReport) repairedf(format string, args ...any) {
	r.Repaired = append(r.Repaired, fmt.Sprintf(format, args...))
}

// FsckBundle verifies (and with repair, fixes) a saved bundle. Repair
// is the bundle's one cleanup: saves, roll-forwards and rollbacks sweep
// up after themselves, so only a crash leaves what it removes.
//
//   - write-ahead log: a pending wal.log is reported; repair mode
//     replays a committed save or rolls an uncommitted one back.
//   - manifest: parses, has a supported format.
//   - catalog: catalog.db loads into the metadata engine.
//   - file inventory: every manifest file exists in the backend at the
//     manifest's size; backend objects the manifest does not name are
//     orphans (repair removes them).
//   - cas bundles: chunk reference audit (store.CAS.CheckRefs: refcounts
//     and lost chunk files) and the chunk files no pool entry names
//     (store.CAS.OrphanChunkFiles; repair removes them unless the
//     refcounts are inconsistent).
//   - obj bundles: abandoned multipart upload sessions on the remote —
//     half-staged parts a crashed save left behind — are reported
//     (repair aborts them).
//
// It holds the bundle lock throughout, so it is safe against
// concurrent saves, migrations and other fscks.
func FsckBundle(dir string, repair bool) (*FsckReport, error) {
	rep := &FsckReport{}
	mu := bundleLock(dir)
	mu.Lock()
	defer mu.Unlock()

	// Phase 1: the write-ahead log.
	walPath := filepath.Join(dir, bundleWALName)
	if _, err := os.Stat(walPath); err == nil {
		rep.WALPending = true
		_, sealed, err := store.ReadWAL(walPath)
		if err != nil {
			return rep, err
		}
		rep.WALSealed = sealed
		if repair {
			if err := recoverBundleLocked(dir, rep); err != nil {
				return rep, fmt.Errorf("sdm: fsck wal recovery: %w", err)
			}
			rep.repairedf("wal: %s interrupted save", rep.WALAction)
		} else {
			verb := "uncommitted save needs rollback"
			if sealed {
				verb = "committed save needs replay"
			}
			rep.errorf("wal: pending log (%s); run with repair", verb)
		}
	}

	// Phase 2: the manifest.
	m, err := readManifest(dir)
	if err != nil {
		rep.errorf("manifest: %v", err)
		return rep, nil
	}

	// Phase 3: the catalog snapshot.
	if cf, err := os.Open(filepath.Join(dir, bundleCatalogName)); err != nil {
		rep.errorf("catalog: %v", err)
	} else {
		db := metadb.New()
		if err := db.Load(cf); err != nil {
			rep.errorf("catalog: does not load: %v", err)
		}
		cf.Close()
	}

	// Phase 4: the file inventory against the backend.
	b, err := openBundleStore(dir, m.Spec, nil)
	if err != nil {
		rep.errorf("backend: %v", err)
		return rep, nil
	}
	live := make(map[string]bool, len(m.Files))
	for _, f := range m.Files {
		live[f.Name] = true
		rep.Files++
		rep.Bytes += f.Size
		sz, err := b.Stat(f.Name)
		if err != nil {
			rep.errorf("file %q: missing from backend: %v", f.Name, err)
			continue
		}
		if sz != f.Size {
			rep.errorf("file %q: backend size %d, manifest says %d", f.Name, sz, f.Size)
		}
	}
	names, err := b.List()
	if err != nil {
		rep.errorf("backend list: %v", err)
		return rep, nil
	}
	for _, n := range names {
		if live[n] {
			continue
		}
		rep.Orphans++
		kind := "orphan object"
		if strings.HasPrefix(n, bundleStagePrefix) {
			kind = "orphan staged object"
		}
		if repair {
			if err := b.Remove(n); err != nil {
				rep.errorf("removing %s %q: %v", kind, n, err)
			} else {
				rep.repairedf("removed %s %q", kind, n)
			}
		} else {
			rep.errorf("%s %q not in manifest (repair removes it)", kind, n)
		}
	}

	// Phases 5 and 6: what only this kind of store can get wrong — see
	// the list above.
	b.audit(rep, repair)
	if repair {
		if err := b.Sync(); err != nil {
			rep.errorf("backend sync: %v", err)
		}
	}
	return rep, nil
}
