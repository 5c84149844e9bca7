package durable

import (
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
