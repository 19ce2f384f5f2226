// Package sdmclient is the client SDK for sdmd, the network-attached
// SDM daemon. It speaks the wire protocol defined in sdm/internal/wire
// (JSON for metadata, octet-stream for dataset bytes) and is what the
// -remote modes of sdmcat and sdmls are built on, so every consumer
// maps HTTP status codes to Go errors the same way: a refused
// connection surfaces as ErrUnreachable ("is sdmd running?"), an
// unknown run/dataset/timestep as ErrNotFound — two very different
// operator problems that must not read alike.
//
//	c := sdmclient.New("http://localhost:8080")
//	runs, err := c.Runs()
//	buf, err := c.ReadDataset(runs[len(runs)-1].RunID, "pressure", 2)
//
// Every call names the run it reads, so a Client holds no state beyond
// its address and is safe for concurrent use by multiple goroutines.
package sdmclient

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sdm/internal/wire"
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrUnreachable wraps transport failures: the daemon is down,
	// the address is wrong, or the network ate the connection.
	ErrUnreachable = errors.New("sdmd unreachable")
	// ErrNotFound maps HTTP 404: the run, dataset, timestep or bundle
	// does not exist on a perfectly healthy daemon.
	ErrNotFound = errors.New("not found")
	// ErrBadRequest maps HTTP 400.
	ErrBadRequest = errors.New("bad request")
	// ErrRange maps HTTP 416: a read outside the dataset's bounds.
	ErrRange = errors.New("range not satisfiable")
)

// Client talks to one sdmd daemon.
type Client struct {
	base   string
	bundle string
	http   *http.Client
}

// A Client reads a bundle the way server.Source reads one opened in
// this process; the tools hold either behind a wire.Reader.
var _ wire.Reader = (*Client)(nil)

// Option configures a Client.
type Option func(*Client)

// WithBundle pins the client to a named bundle on a multi-bundle
// daemon (default: the daemon's first mount).
func WithBundle(name string) Option {
	return func(c *Client) { c.bundle = name }
}

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// custom transports, httptest clients).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New builds a client for the daemon at baseURL (e.g.
// "http://localhost:8080"). No connection is made until the first
// call; use Ping to probe liveness.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 2 * time.Minute},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// url assembles an endpoint URL, tacking on the bundle qualifier.
func (c *Client) url(path string) string {
	u := c.base + path
	if c.bundle != "" {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		u += sep + "bundle=" + url.QueryEscape(c.bundle)
	}
	return u
}

// do runs one request and maps the failure modes: transport errors →
// ErrUnreachable, non-2xx → the sentinel for its status, with the
// server's message attached. On success the caller owns the body.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (is sdmd running at %s?)", ErrUnreachable, err, c.base)
	}
	if resp.StatusCode < 400 {
		return resp, nil
	}
	defer resp.Body.Close()
	var we wire.Error
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&we) == nil && we.Message != "" {
		msg = we.Message
	}
	sentinel := errors.New(resp.Status)
	switch resp.StatusCode {
	case http.StatusNotFound:
		sentinel = ErrNotFound
	case http.StatusBadRequest:
		sentinel = ErrBadRequest
	case http.StatusRequestedRangeNotSatisfiable:
		sentinel = ErrRange
	}
	return nil, fmt.Errorf("%w: %s", sentinel, msg)
}

// getJSON GETs an endpoint and decodes the JSON body into out.
func (c *Client) getJSON(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON POSTs a JSON body and decodes the JSON response into out.
func (c *Client) postJSON(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Ping probes the daemon, returning its mounted bundle names.
func (c *Client) Ping() (wire.Ping, error) {
	var p wire.Ping
	err := c.getJSON("/v1/ping", &p)
	return p, err
}

// Runs lists the bundle's run_table.
func (c *Client) Runs() ([]wire.Run, error) {
	var out []wire.Run
	err := c.getJSON("/v1/runs", &out)
	return out, err
}

// Datasets lists a run's registered datasets (access_pattern_table).
func (c *Client) Datasets(run int64) ([]wire.Dataset, error) {
	var out []wire.Dataset
	err := c.getJSON(fmt.Sprintf("/v1/runs/%d/datasets", run), &out)
	return out, err
}

// Writes lists a run's recorded writes (execution_table).
func (c *Client) Writes(run int64) ([]wire.WriteRecord, error) {
	var out []wire.WriteRecord
	err := c.getJSON(fmt.Sprintf("/v1/runs/%d/writes", run), &out)
	return out, err
}

// Imports lists a run's imported arrays (import_table).
func (c *Client) Imports(run int64) ([]wire.ImportEntry, error) {
	var out []wire.ImportEntry
	err := c.getJSON(fmt.Sprintf("/v1/runs/%d/imports", run), &out)
	return out, err
}

// Histories lists the bundle's registered index histories (index_table).
func (c *Client) Histories() ([]wire.IndexHistory, error) {
	var out []wire.IndexHistory
	err := c.getJSON("/v1/histories", &out)
	return out, err
}

// Lookup resolves a batch of (dataset, timestep) placements in one
// round trip; missing slabs come back as nil slots, in key order.
func (c *Client) Lookup(run int64, keys []wire.WriteKey) ([]*wire.WriteRecord, error) {
	var out wire.LookupResponse
	err := c.postJSON(fmt.Sprintf("/v1/runs/%d/lookup", run), wire.LookupRequest{Keys: keys}, &out)
	return out.Records, err
}

// Detach does nothing and returns nil: the daemon keeps no per-client
// state to release. It stays only while the lifecycle benchmark's serve
// stage calls it (ROADMAP item 4(n)).
func (c *Client) Detach() error { return nil }

// OpenDataset streams one written slab: the [off, off+n) byte range of
// a dataset's global array at a timestep, or everything from off to the
// end when n < 0. The caller must Close the reader. Size is the exact
// byte length of the stream.
func (c *Client) OpenDataset(run int64, dataset string, timestep, off, n int64) (rd io.ReadCloser, size int64, err error) {
	// Dataset names are user data; escape so '/', '?', '%', and spaces
	// can't reroute or break the request path.
	path := fmt.Sprintf("/v1/read/%d/%s/%d", run, url.PathEscape(dataset), timestep)
	var params []string
	if off != 0 {
		params = append(params, "off="+strconv.FormatInt(off, 10))
	}
	if n >= 0 {
		params = append(params, "len="+strconv.FormatInt(n, 10))
	}
	if len(params) > 0 {
		path += "?" + strings.Join(params, "&")
	}
	req, err := http.NewRequest(http.MethodGet, c.url(path), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, 0, err
	}
	return resp.Body, resp.ContentLength, nil
}

// ReadDataset reads a full slab into memory: every byte of the
// dataset's global array at the given timestep, exactly as a local
// bundle read through the catalog would produce it.
func (c *Client) ReadDataset(run int64, dataset string, timestep int64) ([]byte, error) {
	return c.ReadRange(run, dataset, timestep, 0, -1)
}

// ReadRange reads [off, off+n) of a slab; n < 0 means "to the end".
func (c *Client) ReadRange(run int64, dataset string, timestep, off, n int64) ([]byte, error) {
	rd, size, err := c.OpenDataset(run, dataset, timestep, off, n)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	var buf bytes.Buffer
	if size > 0 {
		buf.Grow(int(size))
	}
	if _, err := io.Copy(&buf, rd); err != nil {
		return nil, fmt.Errorf("%w: short read: %s", ErrUnreachable, err)
	}
	if size >= 0 && int64(buf.Len()) != size {
		return nil, fmt.Errorf("%w: short body: got %d of %d bytes", ErrUnreachable, buf.Len(), size)
	}
	return buf.Bytes(), nil
}
