package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nextRecord reads fl's next record and decodes its payload in full,
// checking it against the sequence Next reported.
func nextRecord(fl *Follower) (*Record, error) {
	seq, payload, err := fl.Next()
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, err
	}
	if rec.Seq != seq {
		return nil, fmt.Errorf("Next reported seq %d for a record of seq %d", seq, rec.Seq)
	}
	return &rec, nil
}

// collectFollower streams fl's records into a channel the way a
// replication server does: it reads with Next until the stream is
// caught up, hands the stream to the group-commit leader, and forwards
// each batch the leaders ship. It reports the terminal error on done,
// ErrClosed once the log has ended, and then closes the channel.
func collectFollower(fl *Follower) (<-chan *Record, <-chan error) {
	// Room for every record a test appends: a leader shipping into a
	// full channel would stall the appends the test is waiting on.
	out := make(chan *Record, 4096)
	done := make(chan error, 1)
	var (
		mu     sync.Mutex // orders the leaders' sends against the close
		closed bool
	)
	ship := func(batch [][]byte) error {
		mu.Lock()
		defer mu.Unlock()
		for _, payload := range batch {
			rec := new(Record)
			if err := json.Unmarshal(payload, rec); err != nil {
				return err
			}
			if closed {
				return ErrFollowerClosed
			}
			out <- rec
		}
		return nil
	}
	finish := func(err error) {
		mu.Lock()
		closed = true
		close(out)
		mu.Unlock()
		done <- err
	}
	go func() {
		for {
			rec, err := nextRecord(fl)
			if err == nil {
				out <- rec
				continue
			}
			if errors.Is(err, ErrCaughtUp) {
				if end, ok := fl.Handoff(ship); ok {
					<-end
					finish(ErrClosed)
					return
				}
				continue
			}
			finish(err)
			return
		}
	}()
	return out, done
}

// TestFollowerAcrossRotation streams a log that rotates segments many
// times mid-stream and checks the follower delivers every record in
// sequence order, crossing each rotation boundary.
func TestFollowerAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512 // rotate every few records
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fl := p.Follow(0)
	out, done := collectFollower(fl)

	const n = 100
	for i := 0; i < n; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i + 1), Route: route("0.0>1.0")})
	}
	if p.Stats().Segments < 3 {
		t.Fatalf("want several segments, got %d", p.Stats().Segments)
	}

	// Drain exactly the meta record plus n connects, in order.
	var got []*Record
	deadline := time.After(5 * time.Second)
	for len(got) < n+1 {
		select {
		case rec := <-out:
			got = append(got, rec)
		case err := <-done:
			t.Fatalf("follower died early after %d records: %v", len(got), err)
		case <-deadline:
			t.Fatalf("timeout: got %d of %d records", len(got), n+1)
		}
	}
	for i, rec := range got {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	if got[0].Op != OpMeta {
		t.Fatalf("first record op %s, want %s", got[0].Op, OpMeta)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Op != OpConnect || got[i].Session != uint64(i) {
			t.Fatalf("record %d: op %s session %d, want connect %d", i, got[i].Op, got[i].Session, i)
		}
	}

	// Closing the plane ends the stream with ErrClosed once drained.
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("terminal error %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not terminate after plane close")
	}
}

// TestFollowerResumeFromSeq mimics a standby reconnecting after a
// dropped connection: a fresh follower opened at the last applied
// sequence delivers exactly the remainder, with no gap or replay —
// including when the resume point sits mid-segment.
func TestFollowerResumeFromSeq(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i + 1), Route: route("0.0>1.0")})
	}
	lastSeq := p.LastSeq()

	for _, after := range []uint64{0, 1, 17, 30, lastSeq - 1, lastSeq} {
		fl := p.Follow(after)
		want := after + 1
		for want <= lastSeq {
			rec, err := nextRecord(fl)
			if err != nil {
				t.Fatalf("resume after %d: Next at seq %d: %v", after, want, err)
			}
			if rec.Seq != want {
				t.Fatalf("resume after %d: got seq %d, want %d", after, rec.Seq, want)
			}
			want++
		}
		fl.Close()
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFollowerLiveTail: a follower positioned at the live tail hands
// its stream to the group-commit leader at once, and every later append
// reaches it from the leader, in order, before the append returns.
func TestFollowerLiveTail(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	defer p.Close()

	seq := mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Route: route("0.0>1.0")})
	fl := p.Follow(seq) // positioned at the live tail
	defer fl.Close()
	if _, _, err := fl.Next(); !errors.Is(err, ErrCaughtUp) {
		t.Fatalf("Next at the tail: %v, want ErrCaughtUp", err)
	}
	var (
		mu      sync.Mutex
		shipped []*Record
	)
	end, ok := fl.Handoff(func(batch [][]byte) error {
		mu.Lock()
		defer mu.Unlock()
		for _, payload := range batch {
			rec := new(Record)
			if err := json.Unmarshal(payload, rec); err != nil {
				return err
			}
			shipped = append(shipped, rec)
		}
		return nil
	})
	if !ok {
		t.Fatal("Handoff refused a caught-up follower")
	}
	for i := 0; i < 10; i++ {
		seq := mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(100 + i), Route: route("0.0>1.0")})
		mu.Lock()
		n := len(shipped)
		last := shipped[n-1]
		mu.Unlock()
		if n != i+1 || last.Seq != seq || last.Session != uint64(100+i) {
			t.Fatalf("after append %d (seq %d): %d shipped, last seq %d session %d", i, seq, n, last.Seq, last.Session)
		}
	}
	select {
	case <-end:
		t.Fatal("log reported ended while open")
	default:
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-end
	if _, _, err := fl.Next(); !errors.Is(err, ErrFollowerClosed) {
		t.Fatalf("Next after Handoff: %v, want ErrFollowerClosed", err)
	}
}

// TestCloseShipsAfterInFlightLeader: a Close that races an in-flight
// batch leader waits it out. While the leader is still shipping its
// batch, Close ships nothing; its final batch follows the leader's, and
// no two shipments overlap.
func TestCloseShipsAfterInFlightLeader(t *testing.T) {
	p, _ := mustOpen(t, t.TempDir())
	fl := p.Follow(p.LastSeq())
	if _, _, err := fl.Next(); !errors.Is(err, ErrCaughtUp) {
		t.Fatalf("Next at the tail: %v, want ErrCaughtUp", err)
	}
	var (
		mu       sync.Mutex
		shipped  [][]uint64
		shipping atomic.Int32
	)
	entered, release := make(chan struct{}), make(chan struct{})
	ship := func(batch [][]byte) error {
		if shipping.Add(1) != 1 {
			t.Error("two batches shipped at once")
		}
		defer shipping.Add(-1)
		var seqs []uint64
		for _, payload := range batch {
			var rec Record
			if err := json.Unmarshal(payload, &rec); err != nil {
				return err
			}
			seqs = append(seqs, rec.Seq)
		}
		mu.Lock()
		shipped = append(shipped, seqs)
		first := len(shipped) == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release // the leader is slow to ship
		}
		return nil
	}
	if _, ok := fl.Handoff(ship); !ok {
		t.Fatal("Handoff refused a caught-up follower")
	}
	appended := make(chan uint64, 2)
	appendOne := func(session uint64) {
		seq, err := p.Append(&Record{Op: OpConnect, Session: session, Route: route("0.0>1.0")})
		if err != nil {
			t.Errorf("append session %d: %v", session, err)
		}
		appended <- seq
	}
	go appendOne(1) // leads a batch and stalls in ship
	<-entered
	go appendOne(2) // buffers behind the stalled leader
	deadline := time.Now().Add(5 * time.Second)
	for p.LastSeq() < p.SyncedSeq()+2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	time.Sleep(20 * time.Millisecond) // room for Close to ship too early
	mu.Lock()
	early := len(shipped)
	mu.Unlock()
	if early != 1 {
		t.Errorf("%d batches shipped while the leader was still shipping its own, want 1", early)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	first, second := <-appended, <-appended
	mu.Lock()
	defer mu.Unlock()
	if len(shipped) != 2 || !slices.Equal(shipped[0], []uint64{min(first, second)}) || !slices.Equal(shipped[1], []uint64{max(first, second)}) {
		t.Errorf("shipped %v, want the leader's [%d] then Close's [%d]", shipped, min(first, second), max(first, second))
	}
}

// TestFollowerCompacted: once pruning has dropped the head of the log,
// a follower asked to resume from before the prune horizon reports
// ErrCompacted so the replication server falls back to a snapshot.
func TestFollowerCompacted(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 256
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()
	for i := 0; i < 40; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i + 1), Route: route("0.0>1.0")})
	}
	// Two snapshot generations so prune actually removes head segments.
	for g := 0; g < keepSnapshots; g++ {
		if err := p.WriteSnapshot(&Snapshot{LastSeq: p.SyncedSeq() - uint64(keepSnapshots-1-g)}); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	if segs[0].firstSeq == 1 {
		t.Skip("pruning removed nothing; nothing to assert")
	}
	fl := p.Follow(0)
	if _, _, err := fl.Next(); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Next after compaction: %v, want ErrCompacted", err)
	}
	fl.Close()

	// A resume inside the retained tail still works.
	fl2 := p.Follow(segs[0].firstSeq - 1)
	rec, err := nextRecord(fl2)
	if err != nil {
		t.Fatalf("retained-tail Next: %v", err)
	}
	if rec.Seq != segs[0].firstSeq {
		t.Fatalf("retained-tail seq %d, want %d", rec.Seq, segs[0].firstSeq)
	}
	fl2.Close()
}

// TestFollowerNeverWaitsAtTail: Next at the tail returns ErrCaughtUp
// at once instead of waiting for an append, a batch published after it
// makes Handoff refuse until Next has delivered it, and after Close,
// Next returns ErrFollowerClosed and Handoff refuses.
func TestFollowerNeverWaitsAtTail(t *testing.T) {
	dir := t.TempDir()
	p, _ := mustOpen(t, dir)
	defer p.Close()
	fl := p.Follow(p.LastSeq())
	if _, _, err := fl.Next(); !errors.Is(err, ErrCaughtUp) {
		t.Fatalf("Next at the tail: %v, want ErrCaughtUp", err)
	}
	seq := mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Route: route("0.0>1.0")})
	noShip := func([][]byte) error { return errors.New("shipped") }
	if _, ok := fl.Handoff(noShip); ok {
		t.Fatal("Handoff accepted a follower one record behind")
	}
	if rec, err := nextRecord(fl); err != nil || rec.Seq != seq {
		t.Fatalf("Next after an append: %+v, %v; want seq %d", rec, err, seq)
	}
	fl.Close()
	if _, _, err := fl.Next(); !errors.Is(err, ErrFollowerClosed) {
		t.Fatalf("Next after Close: %v, want ErrFollowerClosed", err)
	}
	if _, ok := fl.Handoff(noShip); ok {
		t.Fatal("Handoff accepted a closed follower")
	}
}

// TestAppendReplicaContiguity: the replica append path accepts only the
// exact next sequence — gaps and replays are protocol errors — and a
// replicated log recovers byte-identically to the source state.
func TestAppendReplicaContiguity(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, _ := mustOpen(t, srcDir)
	for i := 0; i < 10; i++ {
		mustAppend(t, src, &Record{Op: OpConnect, Session: uint64(i + 1), Route: route(fmt.Sprintf("%d.0>%d.0", i, i+1))})
	}
	if err := src.Close(); err != nil {
		t.Fatalf("Close source: %v", err)
	}

	dst, _ := mustOpen(t, dstDir)
	// dst already holds its own meta record at seq 1; replicate the
	// source log from seq 2 to keep sequences aligned.
	src2, _ := mustOpen(t, srcDir)
	fl := src2.Follow(1)
	for i := 0; i < 10; i++ {
		_, payload, err := fl.Next()
		if err != nil {
			t.Fatalf("source Next: %v", err)
		}
		r := new(Record)
		if err := json.Unmarshal(payload, r); err != nil {
			t.Fatalf("decode source record: %v", err)
		}
		if err := dst.AppendReplica(r, payload); err != nil {
			t.Fatalf("AppendReplica seq %d: %v", r.Seq, err)
		}
		// Replays and gaps must be rejected.
		if err := dst.AppendReplica(r, payload); err == nil {
			t.Fatalf("AppendReplica accepted a replay of seq %d", r.Seq)
		}
		gap := *r
		gap.Seq = r.Seq + 2
		if err := dst.AppendReplica(&gap, payload); err == nil {
			t.Fatalf("AppendReplica accepted a gap at seq %d", gap.Seq)
		}
	}
	fl.Close()
	src2.Close()
	if err := dst.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := dst.Close(); err != nil {
		t.Fatalf("Close replica: %v", err)
	}

	srcState, _, _, err := ReadState(srcDir, nil)
	if err != nil {
		t.Fatalf("ReadState source: %v", err)
	}
	dstState, _, _, err := ReadState(dstDir, nil)
	if err != nil {
		t.Fatalf("ReadState replica: %v", err)
	}
	if len(dstState.Sessions) != len(srcState.Sessions) {
		t.Fatalf("replica has %d sessions, source %d", len(dstState.Sessions), len(srcState.Sessions))
	}
	for id, want := range srcState.Sessions {
		got, ok := dstState.Sessions[id]
		if !ok {
			t.Fatalf("replica missing session %d", id)
		}
		if got.Route.Conn != want.Route.Conn {
			t.Fatalf("session %d: replica route %q, source %q", id, got.Route.Conn, want.Route.Conn)
		}
	}
}
