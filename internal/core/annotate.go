package core

import "sdm/internal/sim"

// Annotations implement the paper's "high-level description, together
// with annotations": free-form metadata an application attaches to its
// data, stored in the database alongside the structural tables. Scopes
// namespace the keys (a dataset name, a layer name, anything); runID 0
// addresses the global namespace shared by all runs, for cross-run
// headers.

// Annotate stores one annotation. Collective; rank 0 writes.
func (s *SDM) Annotate(runID int64, scope, key string, value []byte) error {
	return s.catalogCall(func() error {
		return s.env.Catalog.PutAnnotation(s.env.Comm.Clock(), runID, scope, key, value)
	})
}

// Annotation fetches one annotation (nil when absent). Collective;
// rank 0 reads and broadcasts.
func (s *SDM) Annotation(runID int64, scope, key string) ([]byte, error) {
	return onRoot(s, "core: annotation lookup", func(clk *sim.Clock) ([]byte, int64, error) {
		v, err := s.env.Catalog.GetAnnotation(clk, runID, scope, key)
		return v, int64(len(v)) + 16, err
	})
}

// Annotations lists a scope's annotations. Collective; rank 0 reads
// and broadcasts.
func (s *SDM) Annotations(runID int64, scope string) (map[string][]byte, error) {
	return onRoot(s, "core: annotation list", func(clk *sim.Clock) (map[string][]byte, int64, error) {
		v, err := s.env.Catalog.Annotations(clk, runID, scope)
		return v, 64, err
	})
}
