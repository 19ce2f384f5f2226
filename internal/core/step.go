package core

import (
	"cmp"
	"fmt"
	"slices"

	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/sim"
)

// Split-collective step epochs with N-deep pipelining.
//
// A step belongs to the Manager: SDM.BeginStep opens it over every group
// registered so far, Dataset Puts and Gets queue into their group's
// epoch, and SDM.EndStepAsync (EndStep is EndStepAsync().Wait()) closes
// it. A one-call PutAt/GetAt is a one-op step. The step's flush —
// staging, the merged collectives, the execution-table batch — is
// costed on a forked sub-timeline while the application's own clock
// stays at the call point, so the next step's computation overlaps the
// flush in virtual time (the paper's
// asynchronous history-file write, generalized to every dataset). The
// returned StepToken is the MPI_Request analogue: Wait joins the
// flush's completion back into the rank's timeline, charging only
// whatever the overlapped computation did not already cover. The work
// itself still executes inside EndStepAsync in host time (the
// simulation stays deterministic); only the cost model is split. So the
// flush's host buffers live as long as the call, as ROMIO keeps its
// two-phase buffer for one collective: its staging arenas return to the
// Manager's pool when EndStepAsync does, and every file goes through
// the rank's one mpiio staging bundle. A step that queued nothing costs
// nothing: no rendezvous, no drain, no registered token.
//
// Within a flush, a step finishes file by file. Each group's puts are
// placed (slabs, arena, records), then every file they touch is encoded
// on the main timeline just before its one merged collective forks —
// so one file's I/O overlaps the next file's encode and the other
// files' collectives — and the whole step's execution-table rows go to
// rank 0 in one RecordWrites batch issued once the last file has
// forked, overlapping the I/O join. Gets flush after the puts are
// recorded, their per-file collectives forked the same way, and each
// file's reads are decoded as soon as its own collective completes
// (MPI_Waitany, not MPI_Waitall): the clock walks the files' completion
// times in ascending order, so only the last file's decode is exposed.
// A read-ahead's adoption delivers the same way. A get-only step
// records nothing and skips that rendezvous.
//
// Placement. A flush places the step's files as one set: one
// mpiio.Cursor walks them in group order, then groupByFile order — the
// same on every rank — starting at the name hash of the first, and each
// file takes the next aggregator set of ranks and, when the step creates
// it, the next stripes servers (Group.open). A step's small files thus
// land one per rank and evenly over the servers, so no rank waits in
// the phase-1 exchange for a rank opening two of them. A read-ahead
// places its step's files the same way.
//
// Dependencies between flushes are tracked per FILE, not per epoch:
// any number of tokens may be in flight as long as their target-file
// sets are disjoint (Options.StepPipelineDepth bounds the count), so a
// file-per-timestep layout streams checkpoints back-to-back. The list of
// unwaited tokens is the only record: a token writes the files in its
// files list, and a read-ahead has read those its ahead parts place. A
// flush that would touch a file an outstanding token writes implicitly
// Waits on just that token, so pipelined loops over a shared file
// serialize on the file's own dependency chain; with StepPipelineDepth 1
// this reproduces the synchronous EndStep schedule bit-identically.
// Joins happen in completion order — the earliest-finishing flush
// releases its files first — not issue order.
//
// Read-ahead. The placement index knows every (dataset, timestep) of
// the run, so a sequential reader's next checkpoint is a lookup, not a
// guess. A get-only step arms the reader when its timestep is the first
// of the index — the run's first checkpoint, as Linux readahead opens a
// window at file offset 0 without waiting for a second read — or the
// index successor of the previous get-only step's (same datasets). An
// armed step's closing issues the same datasets' gets for the following
// timesteps — the issue half of the ordinary get flush, each on its own
// forked sub-timeline — until StepPipelineDepth tokens are outstanding.
// A reader starting mid-run (a restart reading the last N steps) arms at
// its second sequential step; a jump disarms. The Get step that arrives
// for such a timestep adopts the token (no second flush, no second
// token), joins it and decodes; any other get-only step joins and
// discards what it skipped and takes the ordinary path; arming at the
// first checkpoint costs a random reader at most one window of depth-1
// reads per pass through it. A read-ahead is an ordinary token to Wait,
// DrainSteps, Finalize and the depth bound, and a flush that writes a
// file a read-ahead has read joins and discards it first, so a
// misprediction costs its virtual time and never delivers stale bytes.
// Depth 1 leaves no room beside the step's own token: nothing is issued.

// StepToken is the handle of an asynchronous (split-collective) step
// flush, returned by SDM.EndStepAsync. The flush has been issued; Wait
// joins its completion into the rank's timeline and surfaces any flush
// error. Exactly one Wait per token; waiting twice fails loudly. Get
// results decoded by an asynchronous flush must not be consumed before
// Wait returns.
type StepToken struct {
	s        *SDM
	seq      int64    // issue order, breaking completion-time ties
	timestep int64    // the epoch's timestep, for diagnostics
	done     sim.Time // flush completion on the forked timeline
	err      error    // flush error, surfaced by Wait
	waited   bool

	// fl holds what the flush keeps until Wait: nil for a step that
	// queued nothing, and from the adoption of a read-ahead on.
	fl *flight
}

// flight is what an issued flush holds until its token is waited: the
// files it writes, in claim order, and for a read-ahead its undelivered
// reads and the arenas holding their bytes. Wait hands it back to the
// Manager, whose next flush takes it with every list's backing array, so
// a steady-state step allocates its token and nothing else.
type flight struct {
	files  []string
	arenas [][]byte

	// ahead is the issued, undelivered half of a read-ahead: per group,
	// the datasets read and where their bytes sit in arenas. Empty for
	// ordinary flushes and once a Get step has adopted the token; its
	// slots keep their lists' backing arrays for the next read-ahead.
	ahead []getPart

	next     *flight   // the next spare, while the flight is one
	filesBuf [4]string // files' first backing array: a step of up to four files
}

// newToken allocates a token for a flush of the given timestep, holding
// a flight from the Manager's spares.
func (s *SDM) newToken(timestep int64) *StepToken {
	s.tokenSeq++
	tok := &StepToken{s: s, seq: s.tokenSeq, timestep: timestep, fl: s.spares}
	if tok.fl != nil {
		s.spares, tok.fl.next = tok.fl.next, nil
	} else {
		tok.fl = &flight{}
		tok.fl.files = tok.fl.filesBuf[:0]
	}
	return tok
}

// release returns the flight's arenas to the Manager's pool and the
// flight, emptied, to its spares.
func (s *SDM) release(fl *flight) {
	for _, a := range fl.arenas {
		s.putArena(a)
	}
	clear(fl.arenas)
	clear(fl.files)
	fl.files, fl.arenas, fl.ahead = fl.files[:0], fl.arenas[:0], fl.ahead[:0]
	fl.next, s.spares = s.spares, fl
}

// reading reports whether t is an undelivered read-ahead.
func (t *StepToken) reading() bool { return t.fl != nil && len(t.fl.ahead) > 0 }

// Wait joins the asynchronous flush: the rank's clock advances to the
// flush completion time if the computation since EndStepAsync has not
// already overlapped it, the flushed files become available for new
// epochs, and any flush error is returned. Local (not collective);
// every rank waits on its own token.
func (t *StepToken) Wait() error {
	if t.waited {
		return fmt.Errorf("core: Wait called twice on a step token")
	}
	t.waited = true
	// Bookkeeping first, unconditionally: the token leaves the list of
	// in-flight flushes — and with it its files — and its arenas return
	// to the pool before the flush error is surfaced.
	for i, tok := range t.s.tokens {
		if tok == t {
			t.s.tokens = append(t.s.tokens[:i], t.s.tokens[i+1:]...)
			break
		}
	}
	if t.fl != nil { // an unconsumed read-ahead is discarded, its cost joined below
		t.s.release(t.fl)
		t.fl = nil
	}
	clock := t.s.env.Comm.Clock()
	now := clock.Now()
	clock.AdvanceTo(t.done)
	// The stall a join actually cost this rank — zero when the
	// overlapped computation already covered the flush.
	if tr := t.s.env.Trace; tr != nil && t.done > now {
		tr.Emit(t.s.pid(), "core", "wait", now, t.done,
			obs.KV{Key: "step", Val: fmt.Sprint(t.timestep)})
	}
	return t.err
}

// waitEarliest joins the outstanding token with the earliest completion
// time (ties broken by issue order: s.tokens is kept in issue order, so
// the first token at the earliest completion has the lowest seq).
// Joining in completion order — not issue order — matters because a
// join releases the flushed files for new epochs at the virtual time
// their flush actually finished.
func (s *SDM) waitEarliest() error {
	earliest := s.tokens[0].done
	for _, tok := range s.tokens[1:] {
		earliest = sim.MinTime(earliest, tok.done)
	}
	for _, tok := range s.tokens {
		if tok.done == earliest {
			return tok.Wait()
		}
	}
	return nil // unreachable: earliest is one of the tokens' times
}

// drainToDepth joins outstanding flushes in completion order until at
// most max remain, returning the first flush error encountered (the
// drain itself always completes).
func (s *SDM) drainToDepth(max int) error {
	var firstErr error
	for len(s.tokens) > max {
		if err := s.waitEarliest(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DrainSteps waits every outstanding asynchronous step flush in
// completion order and returns the first flush error. Applications
// that pipeline without keeping tokens (relying on StepPipelineDepth)
// call it at measurement barriers; Finalize calls it implicitly.
// Local, like Wait.
func (s *SDM) DrainSteps() error { return s.drainToDepth(0) }

// writer returns the outstanding flush that writes file, or nil. There
// is at most one: every claim first waits for the previous writer.
func (s *SDM) writer(file string) *StepToken {
	for _, t := range s.tokens {
		if t.fl != nil && slices.Contains(t.fl.files, file) {
			return t
		}
	}
	return nil
}

// awaitFile joins the outstanding flush that writes file, if any.
func (s *SDM) awaitFile(file string) error {
	if t := s.writer(file); t != nil {
		if err := t.Wait(); err != nil {
			return fmt.Errorf("core: implicit wait on the outstanding flush of %q: %w", file, err)
		}
	}
	return nil
}

// claimPutFiles appends the epoch's distinct target files to tok.files,
// which makes tok their writer once it joins s.tokens. For each file, an
// outstanding read-ahead that has read it is joined and discarded (and
// the reader stops predicting until its next sequential get-only step),
// and the outstanding flush writing it is implicitly waited. Two groups
// writing one file within a single cross-group step is an error: the
// conflict is inside the epoch itself, so there is no token to wait on.
func (g *Group) claimPutFiles(tok *StepToken) error {
	s, fl := g.s, tok.fl
	start := len(fl.files)
	for i := range g.ep.puts {
		if file := g.ep.puts[i].file; !slices.Contains(fl.files[start:], file) {
			fl.files = append(fl.files, file)
		}
	}
	for _, file := range fl.files[start:] {
		read := func(t *StepToken) bool {
			ahead := t.fl.ahead
			for i := range ahead {
				for j := range ahead[i].placed {
					if ahead[i].placed[j].file == file {
						return true
					}
				}
			}
			return false
		}
		if s.discardAhead(read) {
			s.reader.armed = false
		}
		if slices.Contains(fl.files[:start], file) {
			return fmt.Errorf("core: cross-group step writes %q from two groups in one epoch", file)
		}
		if err := s.awaitFile(file); err != nil {
			return err
		}
	}
	return nil
}

// adopt moves the group's read arena into a read-ahead token: its bytes
// wait there for the Get step that consumes them, and Wait returns the
// arena to the manager's pool.
func (tok *StepToken) adopt(g *Group) {
	if g.ep.readArena != nil {
		tok.fl.arenas = append(tok.fl.arenas, g.ep.readArena)
		g.ep.readArena = nil
	}
}

// EndStepAsync closes the step and issues its flush as a
// split-collective (see the file comment): all ranks run the flush's
// collectives now (every rank must call it, like EndStep), but the cost
// lands on a forked sub-timeline and the caller's clock stays put, so
// subsequent computation overlaps the flush in virtual time. The
// returned token's Wait joins the completion and reports flush errors;
// alternatively the pipeline bounds itself — when
// Options.StepPipelineDepth flushes are already in flight, the
// earliest-completing ones are joined here before the new flush issues.
// The caller's Put slices may be reused as soon as EndStepAsync returns
// (the arena snapshot happened); Get results are valid only after Wait.
// A flush error surfaced by an implicit join cancels the step and is
// returned here. Every path closes the step, a failed one included.
func (s *SDM) EndStepAsync() (*StepToken, error) {
	if !s.step.open {
		return nil, fmt.Errorf("core: EndStep without an open BeginStep step")
	}
	defer s.cancelStep()
	groups, ts := s.step.groups, s.step.timestep
	empty, getOnly := true, true
	for _, g := range groups {
		if len(g.ep.puts) > 0 || len(g.ep.gets) > 0 {
			empty = false
			getOnly = getOnly && len(g.ep.puts) == 0
		}
	}
	clock := s.env.Comm.Clock()
	if empty {
		// Nothing to flush, no files to claim, and — critically — no
		// reason to drain the pipeline, so outstanding flushes keep
		// overlapping. The token is already complete and unregistered.
		tok := s.newToken(ts)
		tok.done = clock.Now()
		return tok, nil
	}
	parts := s.collectGets(groups)
	var tok *StepToken
	if getOnly {
		tok = s.adoptAhead(ts, parts)
	}
	fork := clock.Now()
	if tok != nil {
		// A read-ahead issued this step's reads: the decodes into the
		// step's queued gets, each file's as its collective completed,
		// and the join are charged on the fork.
		s.deliverGets(ts, tok.fl.ahead)
		clock.AdvanceTo(tok.done)
		// Delivered, the token holds nothing until its Wait: its flight
		// and arenas go back now, for the read-ahead topUpAhead issues.
		s.release(tok.fl)
		tok.fl = nil
	} else {
		if err := s.drainToDepth(s.opts.StepPipelineDepth - 1); err != nil {
			return nil, err
		}
		tok = s.newToken(ts)
		for _, g := range groups {
			if err := g.claimPutFiles(tok); err != nil {
				return nil, err
			}
		}
		fork = clock.Now()
		tok.err = s.flushStep(tok, groups, parts)
		s.tokens = append(s.tokens, tok)
	}
	tok.done = clock.Now()
	clock.Rebase(fork)
	if getOnly && tok.err == nil {
		// Post the next read-aheads from the call point.
		s.noteGetStep(ts, parts)
		s.topUpAhead()
	}
	s.stepCount.Add(1)
	if tr := s.env.Trace; tr != nil {
		tr.Emit(s.pid(), "core", "step", fork, tok.done,
			obs.KV{Key: "step", Val: fmt.Sprint(ts)},
			obs.KV{Key: "seq", Val: fmt.Sprint(tok.seq)})
	}
	return tok, nil
}

// flushStep is a step's flush for token tok on the clock's current
// timeline, returning the flush error. Writes: each group's puts are
// placed, then each of its files is encoded and its collective forked
// in turn. The records' contents (files, offsets) were fixed at
// placement, so the execution-table batch is issued once every file has
// forked — before the I/O join — and the writes complete at the later
// of the database round trip and the data collectives. Reads, after all
// puts are recorded: lookups are main-timeline work, each file's
// collective forks, each file decodes as its collective completes, then
// the join. One cursor places every file the flush touches (see the
// file comment).
func (s *SDM) flushStep(tok *StepToken, groups []*Group, parts []getPart) error {
	clock := s.env.Comm.Clock()
	join := clock.Now()
	cur := mpiio.NewCursor(s.env.Comm, s.env.FS)
	recs := s.recScratch[:0]
	wrote := false
	var flushErr error
	for _, g := range groups {
		if len(g.ep.puts) == 0 {
			continue
		}
		wrote = true
		g.stagePuts(tok.timestep)
		j, err := g.issueFiles(tok.timestep, true, &cur)
		join = sim.MaxTime(join, j)
		g.cacheWrites()
		recs = append(recs, g.ep.recs...)
		if err != nil {
			flushErr = err
			break
		}
	}
	s.recScratch = recs[:0]
	// The rendezvous is how ranks agree on a write error (a failed file
	// trims recs differently per rank), so a step that queued puts always
	// has it; one that queued none — the same on every rank — has nothing
	// to record.
	if wrote {
		if err := s.catalogCall(func() error {
			return s.env.Catalog.RecordWrites(clock, recs)
		}); flushErr == nil {
			flushErr = err
		}
	}
	clock.AdvanceTo(join)
	if flushErr != nil {
		return flushErr
	}
	for _, i := range s.readOrder(parts) {
		g := parts[i].g
		j, err := g.issueGets(tok.timestep, parts[i].dis, &cur)
		join = sim.MaxTime(join, j)
		if err != nil {
			clock.AdvanceTo(join)
			return err
		}
		parts[i].placed = g.ep.placed
	}
	s.deliverGets(tok.timestep, parts)
	clock.AdvanceTo(join)
	return nil
}

// readOrder returns the order a get flush issues its parts in: the
// largest read first, ties in group order. Each group's scatter waits
// for its collective, and the last one issued ends the step exposed, so
// it is best the smallest. An ordinary get flush and a read-ahead issue
// in this order; every rank computes the same one. The result is valid
// until the next call.
func (s *SDM) readOrder(parts []getPart) []int {
	ord := s.readOrd[:0]
	if ord == nil {
		ord = s.readOrdBuf[:0]
	}
	for i := range parts {
		ord = append(ord, i)
	}
	slices.SortStableFunc(ord, func(a, b int) int {
		return cmp.Compare(parts[b].bytes(), parts[a].bytes())
	})
	s.readOrd = ord
	return ord
}

// ---------------------------------------------------------------------------
// Read-ahead
// ---------------------------------------------------------------------------

// collectGets lists the gets queued in the epochs of groups as the
// step's get parts, in s.getParts — reused, with its dataset lists,
// across steps.
func (s *SDM) collectGets(groups []*Group) []getPart {
	parts := s.getParts[:0]
	for _, g := range groups {
		if len(g.ep.gets) == 0 {
			continue
		}
		parts = nextPart(parts, g)
		pt := &parts[len(parts)-1]
		for i := range g.ep.gets {
			pt.dis = append(pt.dis, g.ep.gets[i].di)
		}
	}
	s.getParts = parts
	return parts
}

// nextPart appends a part for g to parts, reviving the slot past the end
// with its lists' backing arrays (emptied) when there is one. A new slot
// sizes its dataset list for every dataset of g.
func nextPart(parts []getPart, g *Group) []getPart {
	if n := len(parts); n < cap(parts) {
		parts = parts[:n+1]
	} else {
		parts = append(parts, getPart{dis: make([]int, 0, len(g.attrs))})
	}
	pt := &parts[len(parts)-1]
	pt.g, pt.dis, pt.placed = g, pt.dis[:0], pt.placed[:0]
	return parts
}

// sameGets reports whether two steps read the same datasets of the same
// groups in the same order.
func sameGets(a, b []getPart) bool {
	return slices.EqualFunc(a, b, func(x, y getPart) bool {
		return x.g == y.g && slices.Equal(x.dis, y.dis)
	})
}

// serves reports whether t is an undelivered read-ahead of exactly this
// get-only step: same timestep, same datasets, through the views the
// step's gets were queued with.
func (t *StepToken) serves(ts int64, parts []getPart) bool {
	if !t.reading() || t.timestep != ts || len(t.fl.ahead) != len(parts) {
		return false
	}
	for i := range parts {
		a := &t.fl.ahead[i]
		if a.g != parts[i].g || !slices.Equal(a.dis, parts[i].dis) {
			return false
		}
		for j := range a.placed {
			if a.placed[j].v != a.g.ep.gets[j].v {
				return false
			}
		}
	}
	return true
}

// discardAhead joins and discards, in issue order, the outstanding
// read-aheads drop selects, and reports whether there were any. Their
// completion times are charged: a misprediction costs what it cost.
func (s *SDM) discardAhead(drop func(t *StepToken) bool) bool {
	dropped := false
	for i := 0; i < len(s.tokens); {
		t := s.tokens[i]
		if !t.reading() || !drop(t) {
			i++
			continue
		}
		dropped = true
		_ = t.Wait() // a read-ahead token carries no error; Wait unlinks it from s.tokens
	}
	return dropped
}

// adoptAhead returns the outstanding read-ahead that serves this
// get-only step, or nil when the step must take the ordinary path.
// Read-aheads issued before the match — every one of them, when nothing
// matches — were skipped by the reader and are discarded.
func (s *SDM) adoptAhead(ts int64, parts []getPart) *StepToken {
	var tok *StepToken
	for _, t := range s.tokens {
		if t.serves(ts, parts) {
			tok = t
			break
		}
	}
	s.discardAhead(func(t *StepToken) bool { return tok == nil || t.seq < tok.seq })
	return tok
}

// noteGetStep feeds the sequential-read detector with a get-only step:
// read-ahead is armed by a step at the first timestep of its first
// part's index (a read at offset 0, as Linux readahead opens a window
// there), and while each such step reads the datasets of the previous
// one at that step's index successor. Every rank decides from the
// collective call sequence and the placement index, so every rank
// issues the same read-ahead collectives.
func (s *SDM) noteGetStep(ts int64, parts []getPart) {
	rd := &s.reader
	idx := &parts[0].g.index
	first := len(idx.steps) > 0 && idx.steps[0] == ts
	next, ok := idx.successor(rd.timestep)
	rd.armed = first || ok && next == ts && sameGets(rd.parts, parts)
	rd.timestep = ts
	rd.parts = rd.parts[:0]
	for i := range parts {
		rd.parts = nextPart(rd.parts, parts[i].g)
		rd.parts[i].dis = append(rd.parts[i].dis, parts[i].dis...)
	}
}

// topUpAhead issues read-aheads for the armed reader's following
// timesteps until StepPipelineDepth tokens — the closing step's own
// included — are outstanding, each forked from the clock's current
// position: the EndStepAsync call point of the get-only step that found
// the room.
func (s *SDM) topUpAhead() {
	rd := &s.reader
	if !rd.armed {
		return
	}
	last := rd.timestep
	for _, t := range s.tokens {
		if t.reading() {
			last = t.timestep // the far end of the issued window
		}
	}
	index := &rd.parts[0].g.index
	for len(s.tokens) < s.opts.StepPipelineDepth {
		next, ok := index.successor(last)
		if !ok || !s.issueAhead(next, rd.parts) {
			return
		}
		last = next
	}
}

// issueAhead issues the get flush of parts for timestep ts as a
// read-ahead: the issue half only, on a sub-timeline forked from the
// clock's current position, into arenas the new token owns, through the
// views the closing get-only step's gets were queued with (parts are its
// gets, still queued while EndStepAsync runs). It declines
// (false) when a slab is not in the placement index or a flush to one
// of the files is still in flight — a speculation never waits and never
// asks the catalog.
func (s *SDM) issueAhead(ts int64, parts []getPart) bool {
	for i := range parts {
		g := parts[i].g
		for _, di := range parts[i].dis {
			rec, ok := g.index.recs[writeKey{g.attrs[di].Name, ts}]
			if !ok || s.writer(rec.FileName) != nil {
				return false
			}
		}
	}
	tok := s.newToken(ts)
	// In group order, as the step's parts.
	ahead := tok.fl.ahead[:0]
	for i := range parts {
		ahead = nextPart(ahead, parts[i].g)
	}
	tok.fl.ahead = ahead
	clock := s.env.Comm.Clock()
	fork := clock.Now()
	join := fork
	cur := mpiio.NewCursor(s.env.Comm, s.env.FS)
	var err error
	for _, i := range s.readOrder(parts) {
		g := parts[i].g
		var j sim.Time
		j, err = g.issueGets(ts, parts[i].dis, &cur)
		join = sim.MaxTime(join, j)
		tok.adopt(g)
		if err != nil {
			break
		}
		ahead[i].dis = append(ahead[i].dis, parts[i].dis...)
		ahead[i].placed = append(ahead[i].placed, g.ep.placed...)
	}
	tok.done = join
	if err != nil {
		// A failed speculation is dropped, its partial I/O charged: the
		// application's own Get of this timestep takes the ordinary path
		// and surfaces the error itself. Stop predicting.
		clock.AdvanceTo(join)
		s.release(tok.fl)
		s.reader.armed = false
		return false
	}
	clock.Rebase(fork)
	s.tokens = append(s.tokens, tok)
	if tr := s.env.Trace; tr != nil {
		tr.Emit(s.pid(), "core", "readahead", fork, join,
			obs.KV{Key: "step", Val: fmt.Sprint(ts)},
			obs.KV{Key: "seq", Val: fmt.Sprint(tok.seq)})
	}
	return true
}

// ---------------------------------------------------------------------------
// Opening and closing a step
// ---------------------------------------------------------------------------

// BeginStep opens the step for the given timestep over every group
// registered so far (the paper's Level-3 rationale made first-class: a
// whole step's datasets amortize one collective). Dataset Puts and Gets
// queue into their own group's epoch; EndStep (or EndStepAsync) then
// flushes all groups in one rendezvous with a single execution-table
// batch. A group registered while the step is open joins the next one.
// Asynchronous flushes from earlier steps may still be outstanding: any
// file-level conflict with an in-flight flush is resolved at flush time
// by waiting on the conflicting token. Collective; every rank must open and close
// the same steps with the same queued dataset sequence.
func (s *SDM) BeginStep(timestep int64) error {
	if s.step.open {
		return fmt.Errorf("core: BeginStep(%d) with step %d already open", timestep, s.step.timestep)
	}
	s.step.open, s.step.timestep, s.step.groups = true, timestep, s.groups
	return nil
}

// cancelStep closes the open step and drops everything its groups
// queued, releasing the caller slices they hold.
func (s *SDM) cancelStep() {
	for _, g := range s.step.groups {
		g.cancelStep()
	}
	s.step.open, s.step.groups = false, nil
}

// oneOpStep wraps a single queued operation in its own step — the shape
// beneath the typed handles' PutAt/GetAt. A failed enqueue cancels the
// step; a failed BeginStep (a step already open) leaves the caller's
// step untouched.
func (s *SDM) oneOpStep(timestep int64, op func() error) error {
	if err := s.BeginStep(timestep); err != nil {
		return err
	}
	if err := op(); err != nil {
		s.cancelStep()
		return err
	}
	return s.EndStep()
}

// EndStep closes the step and flushes it synchronously: all queued puts
// first (one merged collective write per touched file, one batched
// execution-table insert), then all queued gets (one batched placement
// lookup, one merged collective read per file, then the decodes back
// into the callers' slices). Collective whenever anything was queued; a
// step that queued nothing costs nothing. EndStep is exactly
// EndStepAsync().Wait(), pinned bit-identical by the differential tests.
func (s *SDM) EndStep() error {
	tok, err := s.EndStepAsync()
	if err != nil {
		return err
	}
	return tok.Wait()
}
