package metadb

// Session is a cheap per-caller handle onto a DB (the rita-style
// session/engine split): it owns an unsynchronized prepared-statement
// cache, so a caller issuing many statements pays no cache-lock
// contention against other sessions. The data it reads and writes is
// the shared DB's — sessions add no isolation beyond the per-statement
// MVCC snapshots every reader gets.
//
// A Session is NOT safe for concurrent use; give each goroutine its
// own (Session() is allocation-cheap). The DB's own Query/Exec methods
// remain safe for concurrent use and are equivalent to a throwaway
// session per call.
type Session struct {
	db    *DB
	stmts map[string]cachedStmt
}

// Session returns a new handle on the database.
func (db *DB) Session() *Session {
	return &Session{db: db, stmts: make(map[string]cachedStmt)}
}

// prepare consults the session-local cache first; a miss fills it
// through the DB's shared cache, so parse work is still done once per
// statement text per database.
func (s *Session) prepare(src string) (statement, int, error) {
	if c, ok := s.stmts[src]; ok {
		return c.stmt, c.nparams, nil
	}
	stmt, nparams, err := s.db.prepare(src)
	if err != nil {
		return nil, 0, err
	}
	s.stmts[src] = cachedStmt{stmt, nparams}
	return stmt, nparams, nil
}

// Exec runs a statement that returns no rows (DDL, INSERT, DELETE) and
// reports the number of affected rows.
func (s *Session) Exec(src string, args ...any) (int, error) {
	stmt, nparams, err := s.prepare(src)
	if err != nil {
		return 0, err
	}
	params, err := convertArgs(nparams, args)
	if err != nil {
		return 0, err
	}
	return s.db.execStmt(stmt, params)
}

// Query runs a SELECT (or EXPLAIN SELECT) and returns its rows.
func (s *Session) Query(src string, args ...any) (*Rows, error) {
	stmt, nparams, err := s.prepare(src)
	if err != nil {
		return nil, err
	}
	params, err := convertArgs(nparams, args)
	if err != nil {
		return nil, err
	}
	return s.db.queryStmt(stmt, params)
}
