// Package publog is the broker's write-ahead publication log: the
// durability layer under durable named subscriptions (DESIGN.md §5i).
//
// Every publication matched for a durable subscription is appended as one
// CRC-framed binary record (reusing the internal/wirefmt encoding, so the
// log speaks the same dialect as the wire) to a segmented on-disk log.
// Appends go into a buffered writer under the store lock — no syscall on
// the broker's match path in the common case — and are made durable by a
// group-commit goroutine that flushes and fsyncs on a configurable
// interval, so one fsync amortises over every record appended since the
// last one. Acknowledged cursors and the durable subscription expressions
// persist in a sidecar meta file, atomically replaced on update.
//
// Recovery truncates torn tails: a crash mid-record leaves a suffix that
// fails its length or CRC check, and Open cuts the segment back to the
// last whole record (and drops any later segments, which cannot exist in
// a well-formed log). Every record that was fsynced before the crash
// survives. Replay walks the segments read-only and hands back decoded
// publications in append order.
package publog

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/metrics"
)

// Options tunes one store. The zero value is a production-reasonable
// asynchronous log: 8 MiB segments, unlimited retention, group commit on
// every appender wakeup.
type Options struct {
	// SegmentBytes rolls the active segment once it reaches this size
	// (default 8 MiB). Retention deletes whole closed segments, so the
	// segment size bounds retention granularity.
	SegmentBytes int64
	// RetainBytes force-deletes the oldest closed segments once the log
	// exceeds this total size, even if they hold unacknowledged records
	// (0 = never force by size). Fully-acknowledged head segments are
	// reclaimed regardless.
	RetainBytes int64
	// RetainAge force-deletes closed segments older than this
	// (0 = never force by age).
	RetainAge time.Duration
	// FsyncInterval is the group-commit interval: how long an appended
	// record may wait for its fsync while the batch grows. <= 0 commits on
	// every appender wakeup (fsync per drained batch — still batched under
	// load, minimal latency when idle). Ignored with SyncAppend.
	FsyncInterval time.Duration
	// SyncAppend makes Append flush (and fsync, unless NoFsync) inline
	// before returning, and persists cursor updates inline too. This is the
	// deterministic mode the simulator and the crash tests run in; it is
	// also the "one fsync per append" baseline the group-commit benchmark
	// compares against.
	SyncAppend bool
	// NoFsync skips fsync entirely (data still reaches the OS via flush).
	// For simulation and tests; a production broker wants fsync.
	NoFsync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// nameMeta is the persistent per-durable-name state: the cursor pair and
// the subscription expressions to re-register after a restart.
type nameMeta struct {
	// Acked is the highest sequence the subscriber has acknowledged;
	// replay starts at Acked+1.
	Acked uint64 `json:"acked"`
	// LastSeq is the highest sequence ever assigned. Persisted because
	// retention may delete the segment holding it — recovery would
	// otherwise re-issue sequence numbers.
	LastSeq uint64 `json:"last_seq"`
	// Subs are the subscription's XPath expressions, canonical form.
	Subs []string `json:"subs,omitempty"`
}

// Store is one broker's publication log. Safe for concurrent use; it
// implements broker.DurableStore.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	segs      []*segmentInfo // closed segments, oldest first
	active    *segWriter
	meta      map[string]*nameMeta
	metaDirty bool
	unsynced  bool // buffered/flushed writes since the last fsync
	closed    bool

	// Group-commit goroutine wiring (async mode only).
	notify chan struct{}
	stop   chan struct{} // graceful: final commit, then exit
	kill   chan struct{} // crash: exit without committing
	done   chan struct{}

	// Counters, read lock-free by the metrics funcs.
	appends          atomic.Int64
	appendBytes      atomic.Int64
	fsyncs           atomic.Int64
	replayed         atomic.Int64
	truncatedBytes   atomic.Int64
	retentionDeleted atomic.Int64
}

// Open opens (or creates) the log in dir, recovering existing segments:
// torn tails are truncated back to the last whole record, per-name cursors
// are rebuilt from the surviving records and the meta file, and a fresh
// active segment is rolled (each segment carries its own symbol
// dictionary, so an interrupted segment is never appended to again).
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		meta:   make(map[string]*nameMeta),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		kill:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := s.loadMeta(); err != nil {
		return nil, err
	}
	if err := s.recoverSegments(); err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(s.segs); n > 0 {
		next = s.segs[n-1].index + 1
	}
	w, err := newSegWriter(dir, next)
	if err != nil {
		return nil, err
	}
	s.active = w
	if !opts.SyncAppend {
		go s.appender()
	} else {
		close(s.done)
	}
	return s, nil
}

// recoverSegments scans the on-disk segments oldest-first, truncating the
// first torn tail and deleting everything after it, and folds each
// surviving record's (name, seq) into the cursor state.
func (s *Store) recoverSegments() error {
	names, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for i, sn := range names {
		path := filepath.Join(s.dir, sn.name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		info := &segmentInfo{index: sn.index, path: path, names: make(map[string]uint64)}
		torn := scanSegment(data, func(name string, seq uint64, frames []byte) error {
			if seq > info.names[name] {
				info.names[name] = seq
			}
			nm := s.metaFor(name)
			if seq > nm.LastSeq {
				nm.LastSeq = seq
			}
			return nil
		})
		info.created = segmentCreated(data)
		if torn < int64(len(data)) {
			s.truncatedBytes.Add(int64(len(data)) - torn)
			if torn <= int64(segHeaderLen(data)) {
				// Nothing valid in the file at all — remove it.
				if err := os.Remove(path); err != nil {
					return err
				}
			} else if err := os.Truncate(path, torn); err != nil {
				return err
			} else {
				info.size = torn
				s.segs = append(s.segs, info)
			}
			// A tear implies the crash happened while this segment was
			// active; later segments cannot be part of a well-formed log.
			for _, later := range names[i+1:] {
				lp := filepath.Join(s.dir, later.name)
				if st, err := os.Stat(lp); err == nil {
					s.truncatedBytes.Add(st.Size())
				}
				if err := os.Remove(lp); err != nil {
					return err
				}
			}
			return nil
		}
		info.size = int64(len(data))
		s.segs = append(s.segs, info)
	}
	return nil
}

func (s *Store) metaFor(name string) *nameMeta {
	nm := s.meta[name]
	if nm == nil {
		nm = &nameMeta{}
		s.meta[name] = nm
	}
	return nm
}

var errClosed = fmt.Errorf("publog: store closed")

// Append writes one publication record for a durable subscription. The
// record goes into the active segment's buffered writer; durability
// arrives with the next group commit (or inline with SyncAppend). The
// caller must not reuse m's referenced buffers before Append returns —
// the record is fully encoded inside the call, so m may be recycled
// afterwards.
func (s *Store) Append(name string, seq uint64, m *broker.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	n, err := s.active.append(name, seq, m)
	if err != nil {
		return err
	}
	s.active.size += int64(n)
	if seq > s.active.names[name] {
		s.active.names[name] = seq
	}
	nm := s.metaFor(name)
	if seq > nm.LastSeq {
		nm.LastSeq = seq
		s.metaDirty = true
	}
	s.appends.Add(1)
	s.appendBytes.Add(int64(n))
	s.unsynced = true
	if s.active.size >= s.opts.SegmentBytes {
		if err := s.roll(); err != nil {
			return err
		}
	}
	if s.opts.SyncAppend {
		return s.syncActiveLocked()
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return nil
}

// syncActiveLocked flushes the active segment and fsyncs it unless
// NoFsync. Caller holds s.mu.
func (s *Store) syncActiveLocked() error {
	if err := s.active.bw.Flush(); err != nil {
		return err
	}
	if !s.opts.NoFsync {
		if err := s.active.f.Sync(); err != nil {
			return err
		}
		s.fsyncs.Add(1)
	}
	s.unsynced = false
	return nil
}

// roll closes the active segment (flushed and fsynced — a closed segment
// is always whole) and opens the next one with a fresh symbol dictionary.
// Caller holds s.mu.
func (s *Store) roll() error {
	if err := s.active.bw.Flush(); err != nil {
		return err
	}
	if !s.opts.NoFsync {
		if err := s.active.f.Sync(); err != nil {
			return err
		}
		s.fsyncs.Add(1)
	}
	if err := s.active.f.Close(); err != nil {
		return err
	}
	s.unsynced = false
	closed := s.active.segmentInfo
	s.segs = append(s.segs, &closed)
	w, err := newSegWriter(s.dir, closed.index+1)
	if err != nil {
		return err
	}
	s.active = w
	s.retainLocked()
	return nil
}

// Ack advances a subscription's acknowledged cursor (monotonic: a stale
// ack is a no-op). The cursor persists with the next group commit, or
// inline with SyncAppend.
func (s *Store) Ack(name string, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	nm := s.metaFor(name)
	if seq <= nm.Acked {
		return nil
	}
	nm.Acked = seq
	s.metaDirty = true
	if s.opts.SyncAppend {
		return s.saveMetaLocked()
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return nil
}

// SaveSub persists a subscription's expression list, replacing any prior
// list for that name.
func (s *Store) SaveSub(name string, xpes []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	nm := s.metaFor(name)
	nm.Subs = append([]string(nil), xpes...)
	s.metaDirty = true
	if s.opts.SyncAppend {
		return s.saveMetaLocked()
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return nil
}

// Replay hands every logged record for name with from <= seq <= to to fn,
// in append (= sequence) order. The message passed to fn is freshly
// decoded and may be retained. Replay reads the segment files outside the
// store lock — only the initial flush (so buffered appends are visible)
// synchronises with appenders — so a long replay does not stall the
// publish path.
func (s *Store) Replay(name string, from, to uint64, fn func(seq uint64, m *broker.Message) error) error {
	if to < from {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	if err := s.active.bw.Flush(); err != nil {
		s.mu.Unlock()
		return err
	}
	paths := make([]string, 0, len(s.segs)+1)
	for _, seg := range s.segs {
		// Skip segments that cannot hold the range.
		if max, ok := seg.names[name]; !ok || max < from {
			continue
		}
		paths = append(paths, seg.path)
	}
	if s.active.names[name] >= from {
		paths = append(paths, s.active.path)
	}
	s.mu.Unlock()

	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rd := newRecordDecoder()
		var stopErr error
		scanSegment(data, func(recName string, seq uint64, frames []byte) error {
			// Every record's frames must be decoded to keep the segment's
			// symbol dictionary in sync, even ones outside the range. A
			// record the codec refuses (one carrying a retired flag, say)
			// ends the replay with that error rather than being skipped.
			m, err := rd.decode(frames)
			if err != nil {
				stopErr = fmt.Errorf("publog: replay %s: %q seq %d: %w", filepath.Base(path), recName, seq, err)
				return err
			}
			if recName != name || seq < from || seq > to {
				return nil
			}
			s.replayed.Add(1)
			if err := fn(seq, m); err != nil {
				stopErr = err
				return err
			}
			return nil
		})
		if stopErr != nil {
			return stopErr
		}
	}
	return nil
}

// Recover reports the per-name durable state rebuilt at Open — the broker
// re-registers each subscription and resumes its sequence counter from it.
func (s *Store) Recover() []broker.DurableState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]broker.DurableState, 0, len(s.meta))
	for name, nm := range s.meta {
		out = append(out, broker.DurableState{
			Name:    name,
			LastSeq: nm.LastSeq,
			Acked:   nm.Acked,
			Subs:    append([]string(nil), nm.Subs...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// retainLocked deletes closed head segments: always when every record in
// the segment is acknowledged, and regardless of acknowledgement when the
// log is over its size or age budget. It never touches the active segment
// and stops at the first segment it must keep. Caller holds s.mu.
func (s *Store) retainLocked() {
	now := time.Now()
	for len(s.segs) > 0 {
		head := s.segs[0]
		acked := true
		for name, max := range head.names {
			if nm := s.meta[name]; nm == nil || nm.Acked < max {
				acked = false
				break
			}
		}
		forced := false
		if s.opts.RetainBytes > 0 && s.sizeLocked() > s.opts.RetainBytes {
			forced = true
		}
		if !forced && s.opts.RetainAge > 0 && head.created > 0 &&
			now.Sub(time.Unix(0, head.created)) > s.opts.RetainAge {
			forced = true
		}
		if !acked && !forced {
			return
		}
		if err := os.Remove(head.path); err != nil {
			return
		}
		s.retentionDeleted.Add(1)
		s.segs = s.segs[1:]
	}
}

// sizeLocked totals the log's on-disk bytes. Caller holds s.mu.
func (s *Store) sizeLocked() int64 {
	total := s.active.size
	for _, seg := range s.segs {
		total += seg.size
	}
	return total
}

// appender is the group-commit goroutine: it flushes, fsyncs, persists
// dirty cursors, and runs retention — either on every wakeup
// (FsyncInterval <= 0) or on the interval ticker, so any number of
// appends share one fsync.
func (s *Store) appender() {
	defer close(s.done)
	var tickC <-chan time.Time
	if s.opts.FsyncInterval > 0 {
		t := time.NewTicker(s.opts.FsyncInterval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-s.kill:
			return
		case <-s.stop:
			s.commit()
			return
		case <-s.notify:
			if tickC != nil {
				continue // the ticker owns the commit cadence
			}
			s.commit()
		case <-tickC:
			s.commit()
		}
	}
}

// commit is one group commit. The flush happens under the lock; the fsync
// happens outside it, so appends keep flowing into the buffer while the
// disk catches up. A roll racing the fsync closes the file first — the
// roll has already fsynced it, so the lost Sync is harmless.
func (s *Store) commit() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	var f *os.File
	if s.unsynced {
		if err := s.active.bw.Flush(); err == nil {
			f = s.active.f
			s.unsynced = false
		}
	}
	if s.metaDirty {
		s.saveMetaLocked()
	}
	s.retainLocked()
	s.mu.Unlock()
	if f != nil && !s.opts.NoFsync {
		if err := f.Sync(); err == nil {
			s.fsyncs.Add(1)
		}
	}
}

// Close commits everything outstanding and closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if !s.opts.SyncAppend {
		close(s.stop)
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	err := s.active.bw.Flush()
	if err == nil && !s.opts.NoFsync {
		err = s.active.f.Sync()
	}
	if s.metaDirty {
		if merr := s.saveMetaLocked(); err == nil {
			err = merr
		}
	}
	if cerr := s.active.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash closes the store the way a process kill would: the group-commit
// goroutine stops without a final commit, the buffered (unflushed) tail of
// the active segment is dropped, and no cursor state is persisted. Bytes
// already flushed to the OS survive, mirroring a crashed process whose
// page cache reached the file. Tests reopen the directory afterwards to
// exercise recovery.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	if !s.opts.SyncAppend {
		close(s.kill)
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	// No flush: the bufio tail dies with the "process".
	s.active.f.Close()
}

// Dir returns the log directory.
func (s *Store) Dir() string { return s.dir }

// RegisterMetrics publishes the store's instruments as func-backed series
// (xbroker_publog_*) on reg.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("xbroker_publog_appends_total",
		"Publication records appended to the write-ahead log.",
		func() float64 { return float64(s.appends.Load()) })
	reg.CounterFunc("xbroker_publog_append_bytes_total",
		"Bytes appended to the write-ahead log.",
		func() float64 { return float64(s.appendBytes.Load()) })
	reg.CounterFunc("xbroker_publog_fsyncs_total",
		"Group commits fsynced to disk.",
		func() float64 { return float64(s.fsyncs.Load()) })
	reg.CounterFunc("xbroker_publog_replayed_records_total",
		"Records decoded and handed back by replay.",
		func() float64 { return float64(s.replayed.Load()) })
	reg.CounterFunc("xbroker_publog_truncated_bytes_total",
		"Torn-tail bytes truncated during crash recovery.",
		func() float64 { return float64(s.truncatedBytes.Load()) })
	reg.CounterFunc("xbroker_publog_retention_segments_deleted_total",
		"Closed segments reclaimed by retention.",
		func() float64 { return float64(s.retentionDeleted.Load()) })
	reg.GaugeFunc("xbroker_publog_segments",
		"Log segments on disk, including the active one.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.segs) + 1)
		})
	reg.GaugeFunc("xbroker_publog_size_bytes",
		"Total log size on disk.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.sizeLocked())
		})
	reg.GaugeFunc("xbroker_publog_names",
		"Durable subscription names tracked by the log.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.meta))
		})
	reg.GaugeFunc("xbroker_publog_lag",
		"Worst-case replay lag: max over durable subscriptions of assigned minus acknowledged sequence.",
		func() float64 { return float64(s.maxLag()) })
}

func (s *Store) maxLag() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag uint64
	for _, nm := range s.meta {
		if nm.LastSeq > nm.Acked && nm.LastSeq-nm.Acked > lag {
			lag = nm.LastSeq - nm.Acked
		}
	}
	return lag
}

// NameStatus is one durable subscription's cursor state for /statusz.
type NameStatus struct {
	Name    string   `json:"name"`
	LastSeq uint64   `json:"last_seq"`
	Acked   uint64   `json:"acked"`
	Lag     uint64   `json:"lag"`
	Subs    []string `json:"subs,omitempty"`
}

// StoreStatus is the store's /statusz document.
type StoreStatus struct {
	Dir       string       `json:"dir"`
	Segments  int          `json:"segments"`
	SizeBytes int64        `json:"size_bytes"`
	Names     []NameStatus `json:"names,omitempty"`
}

// Status snapshots the store for the admin endpoint.
func (s *Store) Status() StoreStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStatus{
		Dir:       s.dir,
		Segments:  len(s.segs) + 1,
		SizeBytes: s.sizeLocked(),
	}
	for name, nm := range s.meta {
		ns := NameStatus{Name: name, LastSeq: nm.LastSeq, Acked: nm.Acked, Subs: append([]string(nil), nm.Subs...)}
		if nm.LastSeq > nm.Acked {
			ns.Lag = nm.LastSeq - nm.Acked
		}
		st.Names = append(st.Names, ns)
	}
	sort.Slice(st.Names, func(i, j int) bool { return st.Names[i].Name < st.Names[j].Name })
	return st
}
