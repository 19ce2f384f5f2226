package core

import "fmt"

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
	type wire struct {
		Val []byte
		Err string
	}
	var w wire
	if s.env.Comm.Rank() == 0 {
		v, err := s.env.Catalog.GetAnnotation(s.env.Comm.Clock(), runID, scope, key)
		if err != nil {
			w.Err = err.Error()
		}
		w.Val = v
	}
	res := s.env.Comm.Bcast(0, w, int64(len(w.Val))+16).(wire)
	if res.Err != "" {
		return nil, fmt.Errorf("core: annotation lookup: %s", res.Err)
	}
	return res.Val, nil
}

// Annotations lists a scope's annotations. Collective; rank 0 reads
// and broadcasts.
func (s *SDM) Annotations(runID int64, scope string) (map[string][]byte, error) {
	type wire struct {
		Vals map[string][]byte
		Err  string
	}
	var w wire
	if s.env.Comm.Rank() == 0 {
		v, err := s.env.Catalog.Annotations(s.env.Comm.Clock(), runID, scope)
		if err != nil {
			w.Err = err.Error()
		}
		w.Vals = v
	}
	res := s.env.Comm.Bcast(0, w, 64).(wire)
	if res.Err != "" {
		return nil, fmt.Errorf("core: annotation list: %s", res.Err)
	}
	return res.Vals, nil
}
