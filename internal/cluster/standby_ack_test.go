package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/durable"
)

// TestStandbyAcksRecordQueuedBeforeHeartbeat is the semi-sync stall
// regression: a fake primary delivers one record and one heartbeat in
// a single flush, then goes quiet. The standby must still acknowledge
// the record's own seq — an ack of the stale high-water mark (the
// heartbeat's) would leave the primary's Commit waiting out its whole
// SyncTimeout.
func TestStandbyAcksRecordQueuedBeforeHeartbeat(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   ln.Addr().String(),
		DataDir:   t.TempDir(),
		Serving:   standbyServing(),
		Reconnect: time.Hour, // one connection: the fake serves it once
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()

	c, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer c.Close()
	br, bw := bufio.NewReader(c), bufio.NewWriter(c)
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameHandshake {
		t.Fatalf("handshake frame: type %d, err %v", typ, err)
	}
	var hs handshakeMsg
	if err := json.Unmarshal(payload, &hs); err != nil {
		t.Fatalf("decoding handshake: %v", err)
	}

	seq := hs.HaveSeq + 1
	if err := writeFrame(bw, frameRecord, durable.Record{Seq: seq, Op: durable.OpDisconnect, Session: 1}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, frameHeartbeat, heartbeatMsg{SyncedSeq: seq, SentUnixNs: time.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Nothing else is sent; the acks must reach seq on their own.
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	var acked uint64
	for acked < seq {
		typ, payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("standby acked up to %d, want %d (then: %v)", acked, seq, err)
		}
		if typ != frameAck {
			continue
		}
		var ack ackMsg
		if err := json.Unmarshal(payload, &ack); err != nil {
			t.Fatalf("decoding ack: %v", err)
		}
		acked = max(acked, ack.AppliedSeq)
	}
	if got := sb.AppliedSeq(); got != seq {
		t.Errorf("AppliedSeq() = %d, want %d", got, seq)
	}
}

// TestStandbyBatchesBufferedRecords: a fake primary flushes 32 record
// frames in one write. The standby must apply and acknowledge all of
// them, with fewer fsyncs than records — one per record would mean it
// ignored the frames its stream had already delivered.
func TestStandbyBatchesBufferedRecords(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   ln.Addr().String(),
		DataDir:   t.TempDir(),
		Serving:   standbyServing(),
		Reconnect: time.Hour, // one connection: the fake serves it once
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()
	sb.mu.Lock()
	plane := sb.plane
	sb.mu.Unlock()

	c, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer c.Close()
	br, bw := bufio.NewReader(c), bufio.NewWriter(c)
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameHandshake {
		t.Fatalf("handshake frame: type %d, err %v", typ, err)
	}
	var hs handshakeMsg
	if err := json.Unmarshal(payload, &hs); err != nil {
		t.Fatalf("decoding handshake: %v", err)
	}

	before := plane.Stats().Syncs
	const n = 32
	for i := uint64(1); i <= n; i++ {
		if err := writeFrame(bw, frameRecord, durable.Record{Seq: hs.HaveSeq + i, Op: durable.OpDisconnect, Session: i}); err != nil {
			t.Fatal(err)
		}
	}
	if bw.Buffered() >= bw.Size() {
		t.Fatalf("%d record frames do not fit one write", n)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	last := hs.HaveSeq + n
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	var acked uint64
	for acked < last {
		typ, payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("standby acked up to %d, want %d (then: %v)", acked, last, err)
		}
		if typ != frameAck {
			continue
		}
		var ack ackMsg
		if err := json.Unmarshal(payload, &ack); err != nil {
			t.Fatalf("decoding ack: %v", err)
		}
		acked = max(acked, ack.AppliedSeq)
	}
	if syncs := plane.Stats().Syncs - before; syncs >= n {
		t.Errorf("standby fsynced %d times for %d buffered records, want fewer", syncs, n)
	}
}

// TestStandbyRefusesUndecodableRecord: a record frame whose payload
// does not decode ends the stream before anything is appended. The
// standby acknowledges nothing past the last record it holds, and its
// log verifies clean there: it never frames bytes its own recovery
// would cut.
func TestStandbyRefusesUndecodableRecord(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	dir := t.TempDir()
	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   ln.Addr().String(),
		DataDir:   dir,
		Serving:   standbyServing(),
		Reconnect: time.Hour, // one connection: the fake serves it once
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()

	c, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer c.Close()
	br, bw := bufio.NewReader(c), bufio.NewWriter(c)
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameHandshake {
		t.Fatalf("handshake frame: type %d, err %v", typ, err)
	}
	var hs handshakeMsg
	if err := json.Unmarshal(payload, &hs); err != nil {
		t.Fatalf("decoding handshake: %v", err)
	}

	good := hs.HaveSeq + 1
	if err := writeFrame(bw, frameRecord, durable.Record{Seq: good, Op: durable.OpDisconnect, Session: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	readAck := func() (uint64, error) {
		for {
			typ, payload, err := readFrame(br)
			if err != nil {
				return 0, err
			}
			if typ != frameAck {
				continue
			}
			var ack ackMsg
			if err := json.Unmarshal(payload, &ack); err != nil {
				t.Fatalf("decoding ack: %v", err)
			}
			return ack.AppliedSeq, nil
		}
	}
	for acked := uint64(0); acked < good; {
		if acked, err = readAck(); err != nil {
			t.Fatalf("standby did not ack seq %d: %v", good, err)
		}
	}

	// A torn record: the frame is whole, its JSON is not.
	torn := fmt.Sprintf(`{"seq":%d,"op":"connect","route":{"conn":"0.0>`, good+1)
	if err := writePayload(bw, frameRecord, []byte(torn)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		acked, err := readAck()
		if err == io.EOF {
			break // the standby dropped the stream
		}
		if err != nil {
			t.Fatalf("standby kept the stream open after an undecodable record: %v", err)
		}
		if acked > good {
			t.Fatalf("standby acked seq %d past its last record %d", acked, good)
		}
	}
	if got := sb.AppliedSeq(); got != good {
		t.Errorf("AppliedSeq() = %d, want %d", got, good)
	}
	if err := sb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rep, err := durable.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.LastSeq != good {
		t.Errorf("standby log: clean=%v last seq %d (cut %v), want clean at %d", rep.Clean, rep.LastSeq, rep.Truncated, good)
	}
}

// TestStalledStandbyCannotStallPrimary: a standby that handshakes and
// then never reads. Every write to its socket carries a deadline, so
// while the socket fills each append still completes within the sync
// timeout plus slack, the primary counts each batch it acknowledged
// without the standby's ack, and once the socket stops draining the
// primary drops the stream. A standby that connects afterwards catches
// up from the segment files.
func TestStalledStandbyCannotStallPrimary(t *testing.T) {
	const syncTimeout = 50 * time.Millisecond
	const bound = syncTimeout + 950*time.Millisecond // plus slack for fsync and the race detector
	srv := NewServer(ServerConfig{Shard: 0, SyncTimeout: syncTimeout, Logger: quietLogger()})
	meta, err := standbyServing().DurableMeta()
	if err != nil {
		t.Fatal(err)
	}
	plane, _, err := durable.Open(durable.Options{Dir: t.TempDir(), Committer: srv.Commit, Logger: quietLogger()}, meta)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer plane.Close()
	srv.wal = plane // the stream needs only the log: no snapshot is shipped here
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, _, _, err := dialAndHandshake(ln.Addr().String(), time.Second, handshakeMsg{Shard: 0, HaveSeq: plane.LastSeq(), Meta: meta})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	waitFor(t, 5*time.Second, "stalled standby to connect", func() bool { return srv.Standbys() == 1 })

	// A fail record that drops many sessions is ~300 KB: a dozen or two
	// fill the loopback socket buffers.
	rec := durable.Record{Op: durable.OpFail, Middle: 1, Dropped: make([]uint64, 50000)}
	for i := range rec.Dropped {
		rec.Dropped[i] = uint64(10000 + i)
	}
	appends := 0
	for srv.Standbys() > 0 {
		if appends == 200 {
			t.Fatalf("%d appends later the stalled stream is still open", appends)
		}
		r := rec
		errc := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := plane.Append(&r)
			errc <- err
		}()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("append %d: %v", appends, err)
			}
		case <-time.After(bound):
			t.Fatalf("append %d still waiting after %v: the stalled standby stalls the primary", appends, bound)
		}
		if d := time.Since(start); d > bound {
			t.Errorf("append %d took %v, over %v", appends, d, bound)
		}
		appends++
	}
	t.Logf("%d appends, %d sync timeouts", appends, srv.SyncTimeouts())
	if n := srv.SyncTimeouts(); n == 0 || n > uint64(appends) {
		t.Errorf("SyncTimeouts() = %d over %d appends, want between 1 and %d", n, appends, appends)
	}
	// The primary closed the stream: draining it ends at EOF.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("stream still open after the primary dropped the standby: %v", err)
		}
	}

	sb, err := NewStandby(StandbyConfig{
		Shard:     0,
		Primary:   ln.Addr().String(),
		DataDir:   t.TempDir(),
		Serving:   standbyServing(),
		Reconnect: 20 * time.Millisecond,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	sb.Start()
	defer sb.Close()
	last := plane.LastSeq()
	waitFor(t, 10*time.Second, "a new standby to catch up from the segments", func() bool { return sb.AppliedSeq() >= last })
}
