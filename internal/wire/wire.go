// Package wire declares SDM's metadata records and the JSON types of
// sdmd's HTTP protocol — the contract between internal/catalog (which
// fills the six row types from the database), internal/server (the
// daemon, which marshals them as they are) and sdmclient (the SDK, which
// decodes into them). It imports nothing of SDM's, so every layer can
// import it. The protocol is deliberately plain: JSON for metadata,
// application/octet-stream for dataset bytes, standard HTTP status
// codes for errors (404 for unknown bundles/runs/datasets/timesteps and
// for paths that are no endpoint, 400 for malformed requests, 416 for
// out-of-range reads), so a dataset is one curl away. Every request
// names what it reads; the daemon keeps no per-client state.
//
// Endpoints (all under /v1):
//
//	GET    /v1/ping                                liveness + mounted bundles
//	GET    /v1/runs                                run_table
//	GET    /v1/runs/{run}/datasets                 access_pattern_table
//	GET    /v1/runs/{run}/writes                   execution_table
//	GET    /v1/runs/{run}/imports                  import_table
//	GET    /v1/histories                           index_table
//	POST   /v1/runs/{run}/lookup                   batched LookupWrites
//	GET    /v1/read/{run}/{dataset}/{timestep}     dataset bytes (?off=&len=)
//	GET    /v1/cache                               block-cache statistics
//	GET    /v1/metrics                             metrics registry dump (text)
//
// Multi-bundle daemons qualify requests with ?bundle=NAME; the first
// mounted bundle is the default.
package wire

import "time"

// Error is the JSON body of every non-2xx response.
type Error struct {
	Code    string `json:"code"` // "not_found", "bad_request", "range", "internal"
	Message string `json:"message"`
}

// Error codes.
const (
	CodeNotFound   = "not_found"
	CodeBadRequest = "bad_request"
	CodeRange      = "range"
	CodeInternal   = "internal"
)

// Ping is the liveness response: the daemon is up and serving these
// bundles (mount order; the first is the default for unqualified
// requests).
type Ping struct {
	OK      bool     `json:"ok"`
	Bundles []string `json:"bundles"`
}

// The six row types below are the catalog's rows — one struct per table
// of the paper's Figure 4, declared here once: internal/catalog fills
// them from query results (its Run, DatasetInfo, WriteRecord, WriteKey,
// ImportEntry and IndexHistory are aliases of these), sdmd marshals what
// the catalog returned, and sdmclient decodes into the same types.

// Run is one row of run_table. Stamp is the wall-clock time the run
// registered with, at the minute resolution the table stores (UTC).
type Run struct {
	RunID       int64     `json:"runid"`
	Application string    `json:"application"`
	Dimension   int64     `json:"dimension"`
	ProblemSize int64     `json:"problem_size"`
	Timesteps   int64     `json:"num_timesteps"`
	Stamp       time.Time `json:"stamp"` // RFC 3339 on the wire
}

// Dataset is one row of access_pattern_table: the registered shape of
// one dataset within a run's data group.
type Dataset struct {
	RunID         int64  `json:"runid"`
	Dataset       string `json:"dataset"`
	AccessPattern string `json:"access_pattern"` // e.g. "IRREGULAR"
	DataType      string `json:"data_type"`      // a DataTypes name
	StorageOrder  string `json:"storage_order"`  // e.g. "ROW_MAJOR"
	GlobalSize    int64  `json:"global_size"`    // elements in the global array
}

// Bytes reports the byte length of one timestep's slab of the dataset.
func (d Dataset) Bytes() int64 { return d.GlobalSize * DataTypeSize(d.DataType) }

// DataTypes is the one table of element types: the catalog name of each
// (the data_type column) and its width in bytes, indexed by
// core.DataType's value.
var DataTypes = [...]struct {
	Name string
	Size int64
}{{"DOUBLE", 8}, {"INTEGER", 4}, {"LONG", 8}}

// DataTypeSize maps a catalog data-type name to its element width; a
// name outside the table reads as 8-byte elements.
func DataTypeSize(dataType string) int64 {
	for _, t := range DataTypes {
		if t.Name == dataType {
			return t.Size
		}
	}
	return 8
}

// WriteRecord is one row of execution_table: where one timestep of one
// dataset landed. Level-2 and level-3 file organizations rely on these
// offsets to append and to find data again.
type WriteRecord struct {
	RunID      int64  `json:"runid"`
	Dataset    string `json:"dataset"`
	Timestep   int64  `json:"timestep"`
	FileOffset int64  `json:"file_offset"`
	FileName   string `json:"file_name"`
}

// WriteKey names one (dataset, timestep) slab in a batched lookup.
type WriteKey struct {
	Dataset  string `json:"dataset"`
	Timestep int64  `json:"timestep"`
}

// LookupRequest asks the server to resolve a batch of slabs in one
// round trip (the server issues a single batched catalog.LookupWrites).
type LookupRequest struct {
	Keys []WriteKey `json:"keys"`
}

// LookupResponse carries the resolved placements, in key order;
// missing entries are null slots, matching catalog.LookupWrites.
type LookupResponse struct {
	Records []*WriteRecord `json:"records"`
}

// ImportEntry is one row of import_table: an externally created array
// that SDM imports (the paper's uns3d.msh contents).
type ImportEntry struct {
	RunID        int64  `json:"runid"`
	ImportedName string `json:"imported_name"`
	FileName     string `json:"file_name"`
	DataType     string `json:"data_type"`     // "INTEGER" | "DOUBLE"
	StorageOrder string `json:"storage_order"` // "ROW_MAJOR"
	Partition    string `json:"partition"`     // "DISTRIBUTED"
	FileContent  string `json:"file_content"`  // "INDEX" | "DATA"
	FileOffset   int64  `json:"file_offset"`
	Length       int64  `json:"length"` // elements
}

// IndexHistory describes one registered index distribution: the history
// file holding every rank's already partitioned edges (the index_table
// row), and each rank's partitioned sizes (its index_history_table rows,
// which stay off the wire). A history is only valid for the exact
// problem size and process count it was created with — the paper's
// stated limitation.
type IndexHistory struct {
	ProblemSize int64   `json:"problem_size"` // total edges
	NumNodes    int64   `json:"num_nodes"`
	NProcs      int64   `json:"nprocs"`
	Dimension   int64   `json:"dimension"`
	FileName    string  `json:"registered_file_name"`
	EdgeSizes   []int64 `json:"-"` // per-rank partitioned edge count (incl. ghosts)
	NodeSizes   []int64 `json:"-"` // per-rank partitioned node count (incl. ghosts)
	// Digest names what the history was computed from (the partition
	// vector and the edge import; see core's historyDigest). Off the wire,
	// like the per-rank sizes; empty for a history registered without one.
	Digest string `json:"-"`
	// BlockSizes is the byte length of each rank's block of the history
	// file, and Content a digest of those blocks' bytes (see core's
	// IndexRegistry). Off the wire; nil and empty for a history
	// registered without a block table.
	BlockSizes []int64 `json:"-"`
	Content    string  `json:"-"`
}

// Reader is a run bundle as its readers see it — the catalog's listings
// and one slab's bytes — whether the bundle is open in this process
// (server.Source) or behind a daemon (*sdmclient.Client). A run,
// dataset or timestep the bundle does not hold is an error.
type Reader interface {
	Runs() ([]Run, error)
	Datasets(run int64) ([]Dataset, error)
	Writes(run int64) ([]WriteRecord, error)
	Imports(run int64) ([]ImportEntry, error)
	Histories() ([]IndexHistory, error)
	ReadDataset(run int64, dataset string, timestep int64) ([]byte, error)
}

// CacheStats reports the read-through block cache's state
// (GET /v1/cache). HitRatio is hits over all lookups — waits (requests
// coalesced onto another request's in-flight fetch) count as neither
// hits nor misses in the numerator but do appear in the denominator.
type CacheStats struct {
	BlockSize int64   `json:"block_size"`
	Capacity  int64   `json:"capacity"`
	Bytes     int64   `json:"bytes"`
	Blocks    int64   `json:"blocks"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Waits     int64   `json:"waits"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"`
}
