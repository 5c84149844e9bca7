package durable

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multistage"
	"repro/internal/wdm"
)

func testMeta() Meta {
	return Meta{
		Params:   multistage.Params{N: 16, K: 2, R: 4, M: 7, Model: wdm.MSW, Construction: multistage.MSWDominant},
		Replicas: 2,
	}
}

func testOptions(t testing.TB, dir string) Options {
	t.Helper()
	return Options{
		Dir:    dir,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

func route(conn string) *multistage.RouteRecord {
	return &multistage.RouteRecord{
		Conn: conn,
		In:   []multistage.RouteLeg{{Middle: 0, Wave: 0}},
		Out:  []multistage.RouteHop{{Middle: 0, Out: 1, Wave: 1}},
	}
}

func mustOpen(t *testing.T, dir string) (*Plane, *Recovery) {
	t.Helper()
	p, rec, err := Open(testOptions(t, dir), testMeta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return p, rec
}

func mustAppend(t *testing.T, p *Plane, rec *Record) uint64 {
	t.Helper()
	seq, err := p.Append(rec)
	if err != nil {
		t.Fatalf("Append %s: %v", rec.Op, err)
	}
	return seq
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, rec := mustOpen(t, dir)
	if len(rec.Sessions) != 0 || rec.LastSeq != 0 {
		t.Fatalf("fresh recovery not empty: %+v", rec)
	}
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Fabric: 0, Route: route("0.0>5.0")})
	mustAppend(t, p, &Record{Op: OpConnect, Session: 2, Fabric: 1, Route: route("1.0>6.0,9.0")})
	mustAppend(t, p, &Record{Op: OpBranch, Session: 1, Fabric: 0, Branches: 1, Route: route("0.0>5.0,8.0")})
	mustAppend(t, p, &Record{Op: OpConnect, Session: 3, Fabric: 0, Route: route("2.0>7.0")})
	mustAppend(t, p, &Record{Op: OpDisconnect, Session: 3})
	mustAppend(t, p, &Record{Op: OpFail, Fabric: 1, Middle: 2, Migrated: []SessionRoute{
		{Session: 2, Fabric: 1, Migrations: 1, Route: *route("1.0>6.0,9.0")},
	}})
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2, rec2 := mustOpen(t, dir)
	defer p2.Close()
	if got := len(rec2.Sessions); got != 2 {
		t.Fatalf("recovered %d sessions, want 2: %+v", got, rec2.Sessions)
	}
	if rec2.Sessions[0].Session != 1 || rec2.Sessions[0].Branches != 1 {
		t.Errorf("session 1 state wrong: %+v", rec2.Sessions[0])
	}
	if rec2.Sessions[1].Session != 2 || rec2.Sessions[1].Migrations != 1 {
		t.Errorf("session 2 state wrong: %+v", rec2.Sessions[1])
	}
	if want := map[int][]int{1: {2}}; !reflect.DeepEqual(rec2.Failed, want) {
		t.Errorf("failed middles = %v, want %v", rec2.Failed, want)
	}
	if rec2.NextSession != 3 {
		t.Errorf("NextSession = %d, want 3", rec2.NextSession)
	}
	if rec2.Sealed {
		t.Errorf("unsealed log recovered as sealed")
	}
	if rec2.Truncated != nil {
		t.Errorf("clean log reported truncation: %v", rec2.Truncated)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	const workers, per = 8, 40
	var wg sync.WaitGroup
	seqs := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := p.Append(&Record{Op: OpConnect, Session: uint64(w*per + i + 1), Route: route("0.0>5.0")})
				if err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	// +1 for the meta record.
	if st.Appends != workers*per+1 {
		t.Errorf("appends = %d, want %d", st.Appends, workers*per+1)
	}
	if st.SyncedSeq != st.LastSeq {
		t.Errorf("synced %d lags last %d after all appends acked", st.SyncedSeq, st.LastSeq)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Errorf("syncs = %d with %d appends", st.Syncs, st.Appends)
	}
	seen := make(map[uint64]bool)
	for _, s := range seqs {
		for _, q := range s {
			if seen[q] {
				t.Fatalf("duplicate sequence %d", q)
			}
			seen[q] = true
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := mustOpen(t, dir)
	if len(rec.Sessions) != workers*per {
		t.Errorf("recovered %d sessions, want %d", len(rec.Sessions), workers*per)
	}
}

// TestGroupCommitRacesSyncFollowerClose races leader-based group commit
// against Sync callers, a Follower and a Close that lands while appends
// are in flight. Every acknowledged append must survive a reopen, the
// follower must deliver every record in order up to the last one Close
// flushed, and concurrent appenders must have shared fsyncs.
func TestGroupCommitRacesSyncFollowerClose(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	followed, followErr := collectFollower(p.Follow(0))

	stopSync := make(chan struct{})
	var syncers sync.WaitGroup
	for i := 0; i < 2; i++ {
		syncers.Add(1)
		go func() {
			defer syncers.Done()
			for {
				select {
				case <-stopSync:
					return
				default:
				}
				if err := p.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}()
	}

	const workers, per = 8, 100
	var (
		mu      sync.Mutex
		acked   = make(map[uint64]uint64) // seq -> session
		nAcked  atomic.Int64
		half    = make(chan struct{})
		writers sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				session := uint64(w*per + i + 1)
				seq, err := p.Append(&Record{Op: OpConnect, Session: session, Route: route("0.0>5.0")})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				mu.Lock()
				acked[seq] = session
				mu.Unlock()
				if nAcked.Add(1) == workers*per/2 {
					close(half)
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() {
		writers.Wait()
		close(writersDone)
	}()
	select {
	case <-half:
	case <-writersDone: // every writer failed or finished early
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-writersDone
	close(stopSync)
	syncers.Wait()

	st := p.Stats()
	if st.Syncs >= st.Appends {
		t.Errorf("syncs = %d for %d appends: no batch held more than one append", st.Syncs, st.Appends)
	}
	var delivered uint64
	for rec := range followed {
		if delivered++; rec.Seq != delivered {
			t.Fatalf("follower record %d has seq %d", delivered, rec.Seq)
		}
	}
	if err := <-followErr; !errors.Is(err, ErrClosed) {
		t.Errorf("follower ended with %v, want ErrClosed", err)
	}
	if delivered != st.LastSeq {
		t.Errorf("follower delivered %d records, log holds %d", delivered, st.LastSeq)
	}

	p2, _ := mustOpen(t, dir)
	defer p2.Close()
	logged := make(map[uint64]uint64)
	if _, _, _, err := ReadState(dir, func(r *Record) {
		logged[r.Seq] = r.Session
	}); err != nil {
		t.Fatal(err)
	}
	for seq, session := range acked {
		if got, ok := logged[seq]; !ok || got != session {
			t.Errorf("acked seq %d (session %d) reopened as session %d, present %v", seq, session, got, ok)
		}
	}
}

// TestAppendTimedReportsItsOwnBatch: every appender released by one
// group commit reports that batch's fsync/commit split, even when
// later batches complete before it retakes the lock. The Committer
// records each batch's last sequence; appends in one batch must report
// one identical pair, and no pair may appear in two batches.
func TestAppendTimedReportsItsOwnBatch(t *testing.T) {
	var (
		mu    sync.Mutex
		uptos []uint64
	)
	opts := testOptions(t, t.TempDir())
	opts.Committer = func(upTo uint64) {
		mu.Lock()
		uptos = append(uptos, upTo)
		mu.Unlock()
	}
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	type split struct{ fsyncD, commitD time.Duration }
	const workers, per = 64, 20
	seqs := make([][]uint64, workers)
	splits := make([][]split, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, fsyncD, commitD, err := p.AppendTimed(&Record{Op: OpConnect, Session: uint64(w*per + i + 1), Route: route("0.0>5.0")})
				if err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				seqs[w] = append(seqs[w], seq)
				splits[w] = append(splits[w], split{fsyncD, commitD})
			}
		}(w)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(uptos, func(i, j int) bool { return uptos[i] < uptos[j] })
	byBatch := make(map[int]split)
	owner := make(map[split]int)
	for w := range seqs {
		for i, seq := range seqs[w] {
			b := sort.Search(len(uptos), func(k int) bool { return uptos[k] >= seq })
			got := splits[w][i]
			if want, ok := byBatch[b]; ok && got != want {
				t.Errorf("seq %d reports %+v, its batch (up to %d) reported %+v", seq, got, uptos[b], want)
			}
			byBatch[b] = got
			if other, ok := owner[got]; ok && other != b {
				t.Errorf("seq %d reports %+v, the split of the batch up to %d, not of its own up to %d", seq, got, uptos[other], uptos[b])
			}
			owner[got] = b
		}
	}
	if len(byBatch) == workers*per {
		t.Errorf("every append had its own batch: the test exercised no batching")
	}
}

// BenchmarkGroupCommit runs b.N appends on one plane from 1, 4, 16 and
// 64 concurrent appenders and reports ops/s and appends per fsync: the
// concurrency a closed loop of one connection cannot reach.
func BenchmarkGroupCommit(b *testing.B) {
	for _, appenders := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("appenders=%d", appenders), func(b *testing.B) {
			p, _, err := Open(testOptions(b, b.TempDir()), testMeta())
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			before := p.Stats()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := p.Append(&Record{Op: OpConnect, Session: 1, Route: route("0.0>5.0")}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			after := p.Stats()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(after.Appends-before.Appends)/float64(after.Syncs-before.Syncs), "appends/sync")
		})
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 40
	for i := 1; i <= n; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	_, rec := mustOpen(t, dir)
	if len(rec.Sessions) != n {
		t.Errorf("recovered %d sessions across segments, want %d", len(rec.Sessions), n)
	}
}

// corruptTail flips one byte inside the final record's payload of the
// last segment and returns the expected truncation offset (the start
// of that record's frame).
func corruptTail(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	tail := segs[len(segs)-1]
	wi, err := walkLog([]segmentInfo{tail}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wi.records == 0 {
		t.Fatal("tail segment has no records to corrupt")
	}
	// Find the final frame's start by rescanning and keeping the
	// previous offset.
	f, err := os.ReadFile(tail.path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk frames to the last one.
	off := int64(len(segmentMagic))
	last := off
	for off < wi.tailEnd {
		length := int64(uint32(f[off]) | uint32(f[off+1])<<8 | uint32(f[off+2])<<16 | uint32(f[off+3])<<24)
		last = off
		off += frameHeader + length
	}
	f[last+frameHeader+2] ^= 0x40 // flip a payload bit
	if err := os.WriteFile(tail.path, f, 0o644); err != nil {
		t.Fatal(err)
	}
	return tail.name, last
}

func TestCorruptedTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	for i := 1; i <= 5; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	seg, wantOff := corruptTail(t, dir)

	// Verify (read-only) must report the same offset recovery cuts at.
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Clean || rep.Truncated == nil {
		t.Fatalf("Verify missed the corruption: %+v", rep)
	}
	if rep.Truncated.Segment != seg || rep.Truncated.Offset != wantOff {
		t.Errorf("Verify truncation %s@%d, want %s@%d", rep.Truncated.Segment, rep.Truncated.Offset, seg, wantOff)
	}
	if !strings.Contains(rep.Truncated.Reason, "crc mismatch") {
		t.Errorf("reason %q, want crc mismatch", rep.Truncated.Reason)
	}

	p2, rec := mustOpen(t, dir)
	if rec.Truncated == nil || rec.Truncated.Offset != wantOff || rec.Truncated.Segment != seg {
		t.Fatalf("recovery truncation = %+v, want %s@%d", rec.Truncated, seg, wantOff)
	}
	if len(rec.Sessions) != 4 {
		t.Errorf("recovered %d sessions after cut, want 4", len(rec.Sessions))
	}
	// The log must be writable and clean after the cut.
	mustAppend(t, p2, &Record{Op: OpConnect, Session: 9, Route: route("3.0>5.0")})
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Errorf("log still dirty after recovery: %+v", rep.Truncated)
	}
	if rep.Sessions != 5 {
		t.Errorf("sessions after re-append = %d, want 5", rep.Sessions)
	}
}

func TestCorruptedTailTornRecord(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	for i := 1; i <= 4; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	tail := segs[len(segs)-1]
	fi, err := os.Stat(tail.path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-payload, as a crash mid-write would.
	if err := os.Truncate(tail.path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	wi, err := walkLog([]segmentInfo{tail}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOff := wi.truncated.Offset

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || rep.Truncated.Offset != wantOff || !strings.Contains(rep.Truncated.Reason, "torn") {
		t.Fatalf("Verify = %+v, want torn at %d", rep.Truncated, wantOff)
	}

	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if rec.Truncated == nil || rec.Truncated.Offset != wantOff {
		t.Fatalf("recovery truncation = %+v, want offset %d", rec.Truncated, wantOff)
	}
	if len(rec.Sessions) != 3 {
		t.Errorf("recovered %d sessions, want 3 (torn 4th dropped)", len(rec.Sessions))
	}
	fi, err = os.Stat(tail.path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != wantOff {
		t.Errorf("tail size after truncation = %d, want %d", fi.Size(), wantOff)
	}
}

// TestTornMagicTailRecovery covers a crash that tears the tail
// segment inside its magic header: recovery must not leave a
// headerless husk open for appends, because the next recovery would
// read it as "bad segment magic" at offset 0 and destroy every record
// acked in between.
func TestTornMagicTailRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}
	tail := segs[len(segs)-1]
	// Tear the tail mid-magic, as a crash right after rotation would.
	if err := os.Truncate(tail.path, 3); err != nil {
		t.Fatal(err)
	}

	p2, rec := mustOpen(t, dir)
	if rec.Truncated == nil || rec.Truncated.Segment != tail.name || rec.Truncated.Offset != 0 {
		t.Fatalf("truncation = %+v, want %s@0", rec.Truncated, tail.name)
	}
	survivors := len(rec.Sessions)
	// Records acked after this recovery must survive the next one.
	mustAppend(t, p2, &Record{Op: OpConnect, Session: 100, Route: route("1.0>6.0")})
	mustAppend(t, p2, &Record{Op: OpConnect, Session: 101, Route: route("2.0>7.0")})
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("log dirty after recovery + append: %+v", rep.Truncated)
	}
	p3, rec2 := mustOpen(t, dir)
	defer p3.Close()
	if rec2.Truncated != nil {
		t.Fatalf("second recovery truncated: %v", rec2.Truncated)
	}
	if len(rec2.Sessions) != survivors+2 {
		t.Errorf("recovered %d sessions, want %d (post-recovery appends lost)", len(rec2.Sessions), survivors+2)
	}
}

// TestTruncationBehindSnapshotRotates covers a corrupt frame at a
// sequence the snapshot already covers: resuming appends inside the
// truncated segment would leave a sequence gap that the next
// recovery's discontinuity check cuts at, silently discarding every
// record acked in between. Recovery must rotate to a fresh segment
// instead, and later scans must accept the snapshot-covered jump.
func TestTruncationBehindSnapshotRotates(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	for i := 1; i <= 5; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	st := NewState()
	for i := 1; i <= 5; i++ {
		st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
	}
	st.NextSession = 5
	if err := p.WriteSnapshot(&Snapshot{
		LastSeq:     p.SyncedSeq(),
		NextSession: st.NextSession,
		Sessions:    st.SessionList(),
	}); err != nil {
		t.Fatal(err)
	}
	snapSeq := p.SyncedSeq()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the final record — a frame at a sequence at/below
	// the snapshot's LastSeq.
	corruptTail(t, dir)

	p2, rec := mustOpen(t, dir)
	if rec.Truncated == nil {
		t.Fatal("corruption not detected")
	}
	if rec.SnapshotSeq != snapSeq {
		t.Fatalf("SnapshotSeq = %d, want %d", rec.SnapshotSeq, snapSeq)
	}
	if len(rec.Sessions) != 5 {
		t.Fatalf("recovered %d sessions, want 5 (snapshot covers the cut record)", len(rec.Sessions))
	}
	mustAppend(t, p2, &Record{Op: OpConnect, Session: 6, Route: route("1.0>6.0")})
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("snapshot-covered boundary jump misread as corruption: %+v", rep.Truncated)
	}
	p3, rec2 := mustOpen(t, dir)
	defer p3.Close()
	if rec2.Truncated != nil {
		t.Fatalf("second recovery truncated: %v", rec2.Truncated)
	}
	if len(rec2.Sessions) != 6 {
		t.Errorf("recovered %d sessions, want 6 (post-recovery append lost)", len(rec2.Sessions))
	}
}

// TestSnapshotFallbackKeepsLogCoverage: the older retained snapshot is
// only a usable fallback if the log still holds every record past ITS
// LastSeq — pruning against the newest snapshot would silently lose
// the sessions recorded between the two generations.
func TestSnapshotFallbackKeepsLogCoverage(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512 // force rotation so pruning has segments to eat
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	writeSnap := func(n int) {
		t.Helper()
		st := NewState()
		for i := 1; i <= n; i++ {
			st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
		}
		st.NextSession = uint64(n)
		if err := p.WriteSnapshot(&Snapshot{
			LastSeq:     p.SyncedSeq(),
			NextSession: st.NextSession,
			Sessions:    st.SessionList(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 15; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	writeSnap(15)
	// Sessions recorded between the two generations: the newest
	// snapshot covers them, the fallback needs the log for them.
	for i := 16; i <= 30; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	writeSnap(30)
	mustAppend(t, p, &Record{Op: OpConnect, Session: 31, Route: route("1.0>6.0")})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := listSnapshots(dir)
	if len(snaps) != keepSnapshots {
		t.Fatalf("%d snapshots retained, want %d", len(snaps), keepSnapshots)
	}
	// Corrupt the newest snapshot; recovery must fall back to the older
	// generation without losing sessions 16..30.
	b, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x01
	if err := os.WriteFile(snaps[0].path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if rec.SnapshotSeq == 0 {
		t.Fatal("fallback snapshot not used")
	}
	if len(rec.Sessions) != 31 {
		t.Errorf("fallback recovered %d sessions, want 31 (records between generations pruned away?)", len(rec.Sessions))
	}
}

func TestSealAndCleanRecovery(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Route: route("0.0>5.0")})
	mustAppend(t, p, &Record{Op: OpDisconnect, Session: 1})
	if err := p.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := p.Append(&Record{Op: OpConnect, Session: 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after seal = %v, want ErrClosed", err)
	}
	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if !rec.Sealed {
		t.Error("sealed log not recovered as sealed")
	}
	if len(rec.Sessions) != 0 {
		t.Errorf("sealed log recovered %d sessions, want 0", len(rec.Sessions))
	}
	if rec.NextSession != 1 {
		t.Errorf("NextSession = %d, want 1", rec.NextSession)
	}
}

func TestCrashDropsUnackedKeepsAcked(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	// Hold the append's batch before its flush so the crash hits a
	// frame that is buffered but not yet written.
	held, release := make(chan struct{}), make(chan struct{})
	p.mu.Lock()
	p.holdFlush = func() {
		close(held)
		<-release
	}
	p.mu.Unlock()
	seqs := make(chan uint64, 1)
	errs := make(chan error, 1)
	go func() {
		seq, err := p.Append(&Record{Op: OpConnect, Session: 7, Route: route("0.0>5.0")})
		seqs <- seq
		errs <- err
	}()
	<-held
	p.Crash()
	close(release)
	<-seqs
	if err := <-errs; !errors.Is(err, ErrCrashed) {
		t.Fatalf("in-flight append after crash = %v, want ErrCrashed", err)
	}
	if _, err := p.Append(&Record{Op: OpConnect, Session: 8}); !errors.Is(err, ErrCrashed) {
		t.Errorf("append after crash = %v, want ErrCrashed", err)
	}

	_, rec := mustOpen(t, dir)
	if len(rec.Sessions) != 0 {
		t.Errorf("unacked session survived the crash: %+v", rec.Sessions)
	}
	if rec.Truncated != nil {
		t.Errorf("crash with dropped buffer left a dirty log: %v", rec.Truncated)
	}
}

func TestSnapshotRecoveryAndPruning(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512 // force rotation so pruning has segments to eat
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	before, _ := listSegments(dir)
	if len(before) < 3 {
		t.Fatalf("rotation produced %d segments, need >= 3 for a pruning test", len(before))
	}
	st := NewState()
	for i := 1; i <= 30; i++ {
		st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
	}
	st.NextSession = 30
	if err := p.WriteSnapshot(&Snapshot{
		LastSeq:     p.SyncedSeq(),
		NextSession: st.NextSession,
		Sessions:    st.SessionList(),
		Failed:      st.FailedList(),
	}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Tail records past the snapshot.
	mustAppend(t, p, &Record{Op: OpDisconnect, Session: 30})
	mustAppend(t, p, &Record{Op: OpConnect, Session: 31, Route: route("1.0>6.0")})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Covered segments are pruned; the segment that was active at
	// snapshot time is kept (it is the append tail) and may have
	// rotated once since.
	segs, _ := listSegments(dir)
	if len(segs) > 2 {
		t.Errorf("pruning left %d segments, want <= 2 (had %d)", len(segs), len(before))
	}

	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if rec.SnapshotSeq == 0 {
		t.Error("recovery ignored the snapshot")
	}
	if len(rec.Sessions) != 30 { // 30 connects - 1 disconnect + 1 connect
		t.Errorf("recovered %d sessions, want 30", len(rec.Sessions))
	}
	if rec.NextSession != 31 {
		t.Errorf("NextSession = %d, want 31", rec.NextSession)
	}
	found := false
	for _, s := range rec.Sessions {
		if s.Session == 30 {
			t.Error("disconnected session 30 survived snapshot+tail replay")
		}
		if s.Session == 31 {
			found = true
		}
	}
	if !found {
		t.Error("tail session 31 lost")
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	for i := 1; i <= 3; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	snap := &Snapshot{LastSeq: p.SyncedSeq(), NextSession: 3}
	st := NewState()
	for i := 1; i <= 3; i++ {
		st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
	}
	snap.Sessions = st.SessionList()
	if err := p.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) == 0 {
		t.Fatal("no snapshot written")
	}
	// Flip a byte inside the snapshot payload.
	b, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x01
	if err := os.WriteFile(snaps[0].path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir)
	if rec.SnapshotSeq != 0 {
		t.Errorf("corrupt snapshot was trusted (SnapshotSeq=%d)", rec.SnapshotSeq)
	}
	if len(rec.Sessions) != 3 {
		t.Errorf("fallback replay recovered %d sessions, want 3", len(rec.Sessions))
	}
}

func TestMetaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Route: route("0.0>5.0")})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	other := testMeta()
	other.Params.N = 32
	if _, _, err := Open(testOptions(t, dir), other); err == nil {
		t.Fatal("Open accepted a log recorded for a different fabric")
	} else if !strings.Contains(err.Error(), "different fabric") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestReadStateOffline(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Fabric: 1, Route: route("0.0>5.0")})
	mustAppend(t, p, &Record{Op: OpFail, Fabric: 1, Middle: 3})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var ops []string
	state, meta, rep, err := ReadState(dir, func(r *Record) {
		ops = append(ops, r.Op)
	})
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if meta == nil || !meta.Compatible(testMeta()) {
		t.Errorf("meta = %+v, want %+v", meta, testMeta())
	}
	if len(state.Sessions) != 1 || !state.Failed[1][3] {
		t.Errorf("state = %d sessions, failed %v", len(state.Sessions), state.FailedList())
	}
	if !rep.Clean {
		t.Errorf("clean log reported dirty: %+v", rep.Truncated)
	}
	want := []string{OpMeta, OpConnect, OpFail}
	if !reflect.DeepEqual(ops, want) {
		t.Errorf("walked ops %v, want %v", ops, want)
	}
}

// TestSegmentCleanupFile ensures the quarantine path renames segments
// past a mid-log corruption instead of silently replaying them.
func TestQuarantineBeyondCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Corrupt the magic of the middle segment: everything after it must
	// be quarantined, not replayed.
	mid := segs[1]
	b, _ := os.ReadFile(mid.path)
	b[0] ^= 0xff
	if err := os.WriteFile(mid.path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	p2, rec := mustOpen(t, dir)
	defer p2.Close()
	if rec.Truncated == nil || rec.Truncated.Segment != mid.name || rec.Truncated.Offset != 0 {
		t.Fatalf("truncation = %+v, want %s@0", rec.Truncated, mid.name)
	}
	left, _ := listSegments(dir)
	if len(left) != 2 {
		t.Errorf("%d segments remain, want 2 (first intact + truncated middle)", len(left))
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(quarantined) != len(segs)-2 {
		t.Errorf("%d quarantined files, want %d", len(quarantined), len(segs)-2)
	}
}
