package cluster

import (
	"bufio"
	"encoding/json"
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
