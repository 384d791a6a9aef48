package publog

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/xmldoc"
)

// syncOpts is the deterministic test mode: every append and cursor update
// is on disk when the call returns, no goroutine timing involved.
var syncOpts = Options{SyncAppend: true, NoFsync: true}

func pubMsg(doc uint64, path ...string) *broker.Message {
	return &broker.Message{
		Type:  broker.MsgPublish,
		Pub:   xmldoc.Publication{DocID: doc, Path: path},
		Stamp: int64(doc),
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func collect(t *testing.T, s *Store, name string, from, to uint64) []uint64 {
	t.Helper()
	var seqs []uint64
	err := s.Replay(name, from, to, func(seq uint64, m *broker.Message) error {
		if m.Type != broker.MsgPublish {
			t.Fatalf("replayed type %v", m.Type)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return seqs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), syncOpts)
	defer s.Close()
	for i := uint64(1); i <= 5; i++ {
		if err := s.Append("alpha", i, pubMsg(i, "a", "b", "c")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for i := uint64(1); i <= 3; i++ {
		if err := s.Append("beta", i, pubMsg(100+i, "x", "y")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	var got []*broker.Message
	if err := s.Replay("alpha", 2, 4, func(seq uint64, m *broker.Message) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	for i, m := range got {
		wantDoc := uint64(i + 2)
		if m.Pub.DocID != wantDoc {
			t.Errorf("record %d DocID = %d, want %d", i, m.Pub.DocID, wantDoc)
		}
		if want := []string{"a", "b", "c"}; !reflect.DeepEqual(m.Pub.Path, want) {
			t.Errorf("record %d Path = %v, want %v", i, m.Pub.Path, want)
		}
	}
	if seqs := collect(t, s, "beta", 1, 3); !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Errorf("beta replay = %v", seqs)
	}
	// An empty or inverted range replays nothing.
	if seqs := collect(t, s, "alpha", 6, 10); seqs != nil {
		t.Errorf("out-of-range replay = %v", seqs)
	}
	if seqs := collect(t, s, "alpha", 4, 2); seqs != nil {
		t.Errorf("inverted-range replay = %v", seqs)
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncOpts)
	for i := uint64(1); i <= 4; i++ {
		if err := s.Append("n", i, pubMsg(i, "p")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Ack("n", 2); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if err := s.SaveSub("n", []string{"/a/b", "/c"}); err != nil {
		t.Fatalf("SaveSub: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, syncOpts)
	defer s2.Close()
	states := s2.Recover()
	if len(states) != 1 {
		t.Fatalf("Recover returned %d states, want 1", len(states))
	}
	st := states[0]
	if st.Name != "n" || st.LastSeq != 4 || st.Acked != 2 {
		t.Fatalf("recovered state = %+v", st)
	}
	if want := []string{"/a/b", "/c"}; !reflect.DeepEqual(st.Subs, want) {
		t.Fatalf("recovered subs = %v, want %v", st.Subs, want)
	}
	// The unacked gap replays across the reopen; sequence numbers resume.
	if seqs := collect(t, s2, "n", st.Acked+1, st.LastSeq); !reflect.DeepEqual(seqs, []uint64{3, 4}) {
		t.Fatalf("gap replay = %v, want [3 4]", seqs)
	}
	if err := s2.Append("n", 5, pubMsg(5, "p")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if seqs := collect(t, s2, "n", 5, 5); !reflect.DeepEqual(seqs, []uint64{5}) {
		t.Fatalf("post-reopen replay = %v", seqs)
	}
}

// TestStampsReplayAcrossReopen: a record's stamp is written against the
// previous record's in its segment, so stamps that fall, repeat or jump
// between the int64 extremes must replay exactly after a reopen, across
// segment rolls and with two names interleaved.
func TestStampsReplayAcrossReopen(t *testing.T) {
	stamps := []int64{1000, 1000, 999, math.MinInt64, math.MaxInt64, math.MaxInt64, -5, 0, 0, 42, 41, 41}
	dir := t.TempDir()
	opts := syncOpts
	opts.SegmentBytes = 120 // a few records per segment
	s := mustOpen(t, dir, opts)
	want := map[string][]*broker.Message{}
	for i, stamp := range stamps {
		name := []string{"alpha", "beta"}[i%2]
		m := pubMsg(uint64(i), "a", "b")
		m.Stamp = stamp
		want[name] = append(want[name], m)
		if err := s.Append(name, uint64(len(want[name])), m); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	if n := s2.Status().Segments; n < 3 {
		t.Fatalf("%d segments, want the records spread over several", n)
	}
	for name, msgs := range want {
		var got []*broker.Message
		if err := s2.Replay(name, 1, uint64(len(msgs)), func(_ uint64, m *broker.Message) error {
			got = append(got, m)
			return nil
		}); err != nil {
			t.Fatalf("Replay %s: %v", name, err)
		}
		if len(got) != len(msgs) {
			t.Fatalf("%s: replayed %d records, want %d", name, len(got), len(msgs))
		}
		for i, m := range got {
			if m.Stamp != msgs[i].Stamp || m.Pub.DocID != msgs[i].Pub.DocID || !reflect.DeepEqual(m.Pub.Path, msgs[i].Pub.Path) {
				t.Errorf("%s record %d: stamp %d doc %d path %v, want %d, %d, %v", name, i, m.Stamp, m.Pub.DocID, m.Pub.Path,
					msgs[i].Stamp, msgs[i].Pub.DocID, msgs[i].Pub.Path)
			}
		}
	}
}

// TestVersion1SegmentDropped: a segment headed "XPLG1" holds absolute
// stamps, which this codec would misread, so recovery drops it whole and
// counts its bytes as truncated; nothing of it replays.
func TestVersion1SegmentDropped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncOpts)
	for i := uint64(1); i <= 3; i++ {
		if err := s.Append("n", i, pubMsg(i, "a")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, sn := range segs {
		path := filepath.Join(dir, sn.name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, "XPLG1")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		size += int64(len(data))
	}
	s2 := mustOpen(t, dir, syncOpts)
	defer s2.Close()
	if got := s2.truncatedBytes.Load(); got != size {
		t.Errorf("truncated %d bytes, want the version-1 segments' %d", got, size)
	}
	if seqs := collect(t, s2, "n", 1, 3); seqs != nil {
		t.Errorf("version-1 records replayed: %v", seqs)
	}
}

func TestStaleAckIsNoOp(t *testing.T) {
	s := mustOpen(t, t.TempDir(), syncOpts)
	defer s.Close()
	if err := s.Append("n", 1, pubMsg(1, "p")); err != nil {
		t.Fatal(err)
	}
	if err := s.Ack("n", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Ack("n", 3); err != nil {
		t.Fatal(err)
	}
	if got := s.Recover()[0].Acked; got != 7 {
		t.Fatalf("acked cursor = %d after stale ack, want 7", got)
	}
}

func TestSegmentRollAndAckedRetention(t *testing.T) {
	dir := t.TempDir()
	opts := syncOpts
	opts.SegmentBytes = 256 // force frequent rolls
	s := mustOpen(t, dir, opts)
	defer s.Close()
	const total = 40
	for i := uint64(1); i <= total; i++ {
		if err := s.Append("n", i, pubMsg(i, "some", "longer", "path", "elements")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.mu.Lock()
	closedSegs := len(s.segs)
	s.mu.Unlock()
	if closedSegs == 0 {
		t.Fatal("no segment roll despite tiny SegmentBytes")
	}
	// Nothing acked: every record must still replay.
	if seqs := collect(t, s, "n", 1, total); len(seqs) != total {
		t.Fatalf("replayed %d records before ack, want %d", len(seqs), total)
	}
	// Ack everything, then roll once more to trigger retention: fully
	// acknowledged head segments are reclaimed.
	if err := s.Ack("n", total); err != nil {
		t.Fatal(err)
	}
	for i := uint64(total + 1); i <= total+12; i++ {
		if err := s.Append("n", i, pubMsg(i, "some", "longer", "path", "elements")); err != nil {
			t.Fatal(err)
		}
	}
	if s.retentionDeleted.Load() == 0 {
		t.Fatal("retention reclaimed nothing despite full acknowledgement")
	}
	// The unacked tail is intact.
	if seqs := collect(t, s, "n", total+1, total+12); len(seqs) != 12 {
		t.Fatalf("replayed %d unacked records, want 12", len(seqs))
	}
}

func TestRetainBytesForcesDeletion(t *testing.T) {
	opts := syncOpts
	opts.SegmentBytes = 256
	opts.RetainBytes = 512
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	for i := uint64(1); i <= 60; i++ {
		if err := s.Append("n", i, pubMsg(i, "some", "longer", "path", "elements")); err != nil {
			t.Fatal(err)
		}
	}
	if s.retentionDeleted.Load() == 0 {
		t.Fatal("size budget exceeded but nothing deleted")
	}
	s.mu.Lock()
	size := s.sizeLocked()
	segs := len(s.segs)
	s.mu.Unlock()
	// After the last roll's retention pass the closed backlog is bounded
	// near the budget (the active segment may exceed it until it rolls).
	if segs > 4 {
		t.Fatalf("%d closed segments retained (total %dB) despite 512B budget", segs, size)
	}
	// LastSeq survives even though early segments are gone.
	if got := s.Recover()[0].LastSeq; got != 60 {
		t.Fatalf("LastSeq = %d after forced retention, want 60", got)
	}
}

func TestAsyncReplaySeesUncommittedAppends(t *testing.T) {
	// Group-commit mode with an interval long enough that no commit can
	// happen during the test: Replay must still see buffered appends.
	opts := Options{FsyncInterval: time.Hour, NoFsync: true}
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	for i := uint64(1); i <= 3; i++ {
		if err := s.Append("n", i, pubMsg(i, "p")); err != nil {
			t.Fatal(err)
		}
	}
	if seqs := collect(t, s, "n", 1, 3); !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("replay = %v, want [1 2 3]", seqs)
	}
}

func TestAsyncGroupCommitPersists(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FsyncInterval: time.Millisecond, NoFsync: true}
	s := mustOpen(t, dir, opts)
	for i := uint64(1); i <= 5; i++ {
		if err := s.Append("n", i, pubMsg(i, "p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ack("n", 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, metaFile)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group commit never persisted the meta file")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, syncOpts)
	defer s2.Close()
	if seqs := collect(t, s2, "n", 1, 5); len(seqs) != 5 {
		t.Fatalf("replayed %d after async close, want 5", len(seqs))
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := mustOpen(t, t.TempDir(), syncOpts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Append("n", 1, pubMsg(1, "p")); err == nil {
		t.Fatal("Append on closed store succeeded")
	}
	if err := s.Ack("n", 1); err == nil {
		t.Fatal("Ack on closed store succeeded")
	}
	if err := s.Replay("n", 1, 1, func(uint64, *broker.Message) error { return nil }); err == nil {
		t.Fatal("Replay on closed store succeeded")
	}
}

func TestCorruptMetaTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, syncOpts)
	if err := s.Append("n", 1, pubMsg(1, "p")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, syncOpts)
	defer s2.Close()
	// Cursors reset (extra replay is allowed), but the logged records and
	// the sequence high-water mark from the segments themselves survive.
	st := s2.Recover()
	if len(st) != 1 || st[0].LastSeq != 1 || st[0].Acked != 0 {
		t.Fatalf("state after corrupt meta = %+v", st)
	}
}

func TestOversizedNameRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), syncOpts)
	defer s.Close()
	big := make([]byte, maxNameLen+1)
	for i := range big {
		big[i] = 'x'
	}
	if err := s.Append(string(big), 1, pubMsg(1, "p")); err == nil {
		t.Fatal("oversized durable name accepted")
	}
}

// TestRegisteredMetricsTrackStore runs a store with real fsyncs (the one
// configuration the rest of the suite avoids for speed) and checks the
// func-backed xbroker_publog_* series read through to live store state.
func TestRegisteredMetricsTrackStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncAppend: true, SegmentBytes: 64})
	defer s.Close()
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	reg := metrics.NewRegistry()
	s.RegisterMetrics(reg)

	for i := uint64(1); i <= 8; i++ {
		if err := s.Append("n", i, pubMsg(i, "a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ack("n", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSub("n", []string{"/a//b"}); err != nil {
		t.Fatal(err)
	}
	vals := make(map[string]float64)
	for _, p := range reg.Export() {
		vals[p.Key] = p.Value
	}
	if got := vals["xbroker_publog_appends_total"]; got != 8 {
		t.Fatalf("appends_total = %v, want 8", got)
	}
	if got := vals["xbroker_publog_fsyncs_total"]; got < 8 {
		t.Fatalf("fsyncs_total = %v, want >= 8 (SyncAppend fsyncs per record)", got)
	}
	if got := vals["xbroker_publog_lag"]; got != 5 {
		t.Fatalf("lag = %v, want 5", got)
	}
	if got := vals["xbroker_publog_names"]; got != 1 {
		t.Fatalf("names = %v, want 1", got)
	}
	// SegmentBytes 256 forces rolls, so the gauge and the directory agree.
	if got := vals["xbroker_publog_segments"]; got < 2 {
		t.Fatalf("segments = %v, want >= 2 after forced rolls", got)
	}
	if got := vals["xbroker_publog_append_bytes_total"]; got <= 0 {
		t.Fatalf("append_bytes_total = %v, want > 0", got)
	}
	if got := vals["xbroker_publog_size_bytes"]; got <= 0 {
		t.Fatalf("size_bytes = %v, want > 0", got)
	}
}

func TestStatusAndMetrics(t *testing.T) {
	s := mustOpen(t, t.TempDir(), syncOpts)
	defer s.Close()
	for i := uint64(1); i <= 3; i++ {
		if err := s.Append("n", i, pubMsg(i, "p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ack("n", 1); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Segments != 1 || len(st.Names) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if ns := st.Names[0]; ns.LastSeq != 3 || ns.Acked != 1 || ns.Lag != 2 {
		t.Fatalf("name status = %+v", ns)
	}
	if got := s.maxLag(); got != 2 {
		t.Fatalf("maxLag = %d, want 2", got)
	}
}

// TestReplayRefusesRetiredTreeRecord: publication records are wirefmt
// frames, so a record logged with the retired parsed-tree publish flag
// fails replay with the codec's unknown-flag error instead of decoding
// into something else.
func TestReplayRefusesRetiredTreeRecord(t *testing.T) {
	frames := []byte{
		5, 0x01, 0, 1, 1, 'a', // dictionary frame: symbol 0 is "a"
		// Publish, flags = bit 0, docID/pathID/stamp 0, empty path, then
		// the one-element tree <a/>: name, no attributes, no text, no
		// children.
		11, 0x02, byte(broker.MsgPublish), 1 << 0, 0, 0, 0, 0, 0, 0, 0, 0,
	}
	body := append([]byte{1, 'n', 1}, frames...) // name "n", seq 1
	seg := append([]byte(segMagic), binary.AppendUvarint(nil, 1)...)
	seg = binary.AppendUvarint(seg, uint64(len(body)))
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(body))
	seg = append(seg, body...)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, syncOpts)
	defer s.Close()
	err := s.Replay("n", 1, 1, func(uint64, *broker.Message) error {
		t.Fatal("a record with the retired tree flag was replayed")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "unknown publication flags") {
		t.Fatalf("Replay = %v, want the unknown-flag error", err)
	}
}
