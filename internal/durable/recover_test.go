package durable

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReadStateReportIsVerifyReport: offline tooling and the integrity
// check read a directory through one scan, so ReadState's report is
// Verify's — snapshots, every segment, the live session count and the
// cut — on a directory that holds all three.
func TestReadStateReportIsVerifyReport(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 512
	p, _, err := Open(opts, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 15; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("0.0>5.0")})
	}
	st := NewState()
	for i := 1; i <= 15; i++ {
		st.Sessions[uint64(i)] = &SessionRoute{Session: uint64(i), Route: *route("0.0>5.0")}
	}
	if err := p.WriteSnapshot(&Snapshot{LastSeq: p.SyncedSeq(), NextSession: 15, Sessions: st.SessionList()}); err != nil {
		t.Fatal(err)
	}
	for i := 16; i <= 30; i++ {
		mustAppend(t, p, &Record{Op: OpConnect, Session: uint64(i), Route: route("1.0>6.0")})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	corruptTail(t, dir) // cuts session 30's connect

	want, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Snapshots) != 1 || len(want.Segments) < 2 || want.Truncated == nil || want.Sessions != 29 {
		t.Fatalf("directory lacks a snapshot, rotated segments and a cut tail: %+v", want)
	}
	state, meta, got, err := ReadState(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReadState report\n %+v\ndiffers from Verify's\n %+v", got, want)
	}
	if len(state.Sessions) != want.Sessions || meta == nil || !meta.Compatible(testMeta()) {
		t.Errorf("ReadState: %d sessions, meta %+v", len(state.Sessions), meta)
	}
}

// seedLog writes a log holding every record kind — meta, connect,
// branch, disconnect, fail with migrated and dropped sessions, repair,
// a traced connect, and the seal — and returns its segment's bytes
// after the magic.
func seedLog(f *testing.F) []byte {
	dir := f.TempDir()
	p, _, err := Open(testOptions(f, dir), testMeta())
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []*Record{
		{Op: OpConnect, Session: 1, Route: route("0.0>5.0")},
		{Op: OpConnect, Session: 2, Fabric: 1, Route: route("1.0>6.0")},
		{Op: OpBranch, Session: 1, Branches: 1, Route: route("0.0>5.0,8.0")},
		{Op: OpConnect, Session: 3, Route: route("2.0>7.0")},
		{Op: OpDisconnect, Session: 3},
		{Op: OpConnect, Session: 4, Fabric: 1, Route: route("3.0>9.0")},
		{Op: OpFail, Fabric: 1, Middle: 2, Migrated: []SessionRoute{
			{Session: 2, Fabric: 1, Migrations: 1, Route: *route("1.0>6.0")},
		}, Dropped: []uint64{4}},
		{Op: OpRepair, Fabric: 1, Middle: 2},
		{Op: OpConnect, Session: 5, Route: route("4.0>10.0"), TP: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
	} {
		if _, err := p.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := p.Seal(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return b[len(segmentMagic):]
}

// strayFirstRecord is a segment body whose one CRC-valid frame, a
// connect at sequence seq, is followed by 8 bytes of garbage.
func strayFirstRecord(t testing.TB, seq uint64) []byte {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := writeFrame(w, []byte(fmt.Sprintf(`{"seq":%d,"op":"connect","session":1}`, seq))); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return append(b.Bytes(), "garbage!"...)
}

// TestOpenCutsFirstRecordOffSegmentName: a segment is named for its
// first record and Append never writes sequence 0, so a log whose
// first record carries any other sequence is cut before it. Keeping
// such a record, Open would rotate to the segment after its sequence,
// which can be the cut tail's own name, and fail with "file exists" on
// a directory Verify reports readable.
func TestOpenCutsFirstRecordOffSegmentName(t *testing.T) {
	for _, tc := range []struct{ segment, seq uint64 }{{1, 0}, {5, 4}, {2, 7}} {
		dir := t.TempDir()
		seg := append([]byte(segmentMagic), strayFirstRecord(t, tc.seq)...)
		if err := os.WriteFile(filepath.Join(dir, segmentName(tc.segment)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		cut := rep.Truncated
		if rep.Records != 0 || rep.LastSeq != 0 || cut == nil || cut.Offset != int64(len(segmentMagic)) {
			t.Fatalf("segment %d, first record %d: Verify read %d records to seq %d, cut %+v; want none, cut after the magic",
				tc.segment, tc.seq, rep.Records, rep.LastSeq, cut)
		}
		_, _, read, err := ReadState(dir, nil)
		if err != nil || !reflect.DeepEqual(read, rep) {
			t.Fatalf("ReadState report %+v (%v), Verify report %+v", read, err, rep)
		}
		p, rec, err := Open(testOptions(t, dir), testMeta())
		if err != nil {
			t.Fatalf("segment %d, first record %d: Open: %v", tc.segment, tc.seq, err)
		}
		if rec.LastSeq != 0 || !reflect.DeepEqual(rec.Truncated, cut) {
			t.Errorf("Open recovered to seq %d, cut %+v; Verify reported 0, %+v", rec.LastSeq, rec.Truncated, cut)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !after.Clean || after.Records != 1 || after.LastSeq != 1 || len(after.Segments) != 1 {
			t.Errorf("recovered log: clean=%v, %d records to seq %d in %d segments (cut %+v); want the meta record alone in one",
				after.Clean, after.Records, after.LastSeq, len(after.Segments), after.Truncated)
		}
	}
}

// TestOpenSkipsEmptyTailNamedForAnotherSeq: a tail segment holding no
// records is given the log's next record only when it is named for it,
// and is removed otherwise. A standby bootstrap leaves an empty segment
// named for the record after its snapshot; with that snapshot lost, the
// log restarts at sequence 1 in a fresh segment, so it still starts at
// its segment's name and the next recovery keeps every record.
func TestOpenSkipsEmptyTailNamedForAnotherSeq(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(11)), []byte(segmentMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	p, _, err := Open(testOptions(t, dir), testMeta())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, p, &Record{Op: OpConnect, Session: 1, Route: route("0.0>5.0")})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Records != 2 || rep.Sessions != 1 || len(rep.Segments) != 1 || rep.Segments[0].FirstSeq != 1 {
		t.Errorf("log verifies clean=%v with %d records and %d sessions in segments %+v (cut %+v); want clean, meta and one connect in segment 1",
			rep.Clean, rep.Records, rep.Sessions, rep.Segments, rep.Truncated)
	}
}

// FuzzRecover feeds arbitrary bytes after the segment magic to the one
// scan of a data directory. Verify must report without error and
// ReadState must give its report; Open must either refuse a foreign
// fabric or recover exactly what Verify reported, and leave a log that
// verifies clean with the same sessions.
func FuzzRecover(f *testing.F) {
	body := seedLog(f)
	f.Add(body)
	f.Add(body[:len(body)-7]) // torn final frame
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x10 // a bit inside some middle frame
	f.Add(flipped)
	f.Add(strayFirstRecord(f, 0)) // the log's first record off its segment's name

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		seg := append([]byte(segmentMagic), body...)
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(dir)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		_, _, read, err := ReadState(dir, nil)
		if err != nil {
			t.Fatalf("ReadState: %v", err)
		}
		if !reflect.DeepEqual(read, rep) {
			t.Fatalf("ReadState report %+v, Verify report %+v", read, rep)
		}

		p, rec, err := Open(testOptions(t, dir), testMeta())
		if err != nil {
			if strings.Contains(err.Error(), "different fabric") {
				return
			}
			t.Fatalf("Open: %v", err)
		}
		if rec.LastSeq != rep.LastSeq || !reflect.DeepEqual(rec.Truncated, rep.Truncated) || len(rec.Sessions) != rep.Sessions {
			p.Close()
			t.Fatalf("Open recovered last seq %d, cut %v, %d sessions; Verify reported %d, %v, %d",
				rec.LastSeq, rec.Truncated, len(rec.Sessions), rep.LastSeq, rep.Truncated, rep.Sessions)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		after, err := Verify(dir)
		if err != nil {
			t.Fatalf("Verify after recovery: %v", err)
		}
		if !after.Clean || after.Sessions != rep.Sessions {
			t.Fatalf("recovered log verifies clean=%v with %d sessions (cut %v), want clean with %d",
				after.Clean, after.Sessions, after.Truncated, rep.Sessions)
		}
	})
}
