package durable

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"
)

// keepSnapshots is how many checkpoint generations survive pruning:
// the newest plus one fallback in case the newest is found corrupt at
// recovery time.
const keepSnapshots = 2

// WriteSnapshot persists a checkpoint atomically (temp file + fsync +
// rename + directory fsync), then prunes snapshots beyond the retained
// generations and log segments wholly covered by the oldest retained
// one. Pass the state captured by the controller; snap.Meta and
// snap.TakenUnixNs are filled in here.
func (p *Plane) WriteSnapshot(snap *Snapshot) error {
	snap.Meta = p.meta
	if err := writeSnapshotFile(p.opts.Dir, snap); err != nil {
		return err
	}

	p.mu.Lock()
	p.snapSeq = snap.LastSeq
	p.snapUnix = snap.TakenUnixNs
	p.mu.Unlock()

	p.prune()
	return nil
}

// WriteSnapshotTo persists a checkpoint into dir without an open Plane
// — the standby-bootstrap path: a replication stream that has fallen
// off the primary's retained log receives the primary's current
// snapshot, writes it here into an empty data directory, and reopens
// the Plane on top (Open rotates to a fresh segment at LastSeq+1). The
// caller provides snap.Meta; the directory is created if absent.
func WriteSnapshotTo(dir string, snap *Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	return writeSnapshotFile(dir, snap)
}

// writeSnapshotFile is the atomic write core shared by WriteSnapshot
// and WriteSnapshotTo: temp file + fsync + rename + directory fsync.
func writeSnapshotFile(dir string, snap *Snapshot) error {
	if snap.TakenUnixNs == 0 {
		snap.TakenUnixNs = time.Now().UnixNano()
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("durable: encode snapshot: %w", err)
	}
	final := filepath.Join(dir, snapshotName(snap.LastSeq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(snapshotMagic); err == nil {
		err = writeFrame(w, payload)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	syncDir(dir)
	return nil
}

// prune removes snapshot generations beyond keepSnapshots and log
// segments every record of which is covered by the OLDEST retained
// snapshot. Recovery falls back to that generation when newer
// snapshots are corrupt, and the fallback needs every record past its
// LastSeq still on disk — pruning against the newest would silently
// lose the records between the generations. The active (final) segment
// is never removed. Pruning is best-effort — failure leaves extra
// files, never missing state.
func (p *Plane) prune() {
	snaps, err := listSnapshots(p.opts.Dir)
	if err != nil || len(snaps) == 0 {
		return
	}
	for i := keepSnapshots; i < len(snaps); i++ {
		if rerr := os.Remove(snaps[i].path); rerr != nil {
			p.opts.Logger.Warn("snapshot prune", slog.String("error", rerr.Error()))
		}
	}
	oldest := len(snaps) - 1
	if oldest > keepSnapshots-1 {
		oldest = keepSnapshots - 1
	}
	lastSeq := snaps[oldest].lastSeq
	segs, err := listSegments(p.opts.Dir)
	if err != nil {
		return
	}
	// A segment's records all precede the next segment's first
	// sequence; it is disposable once that whole range is checkpointed.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstSeq > lastSeq+1 {
			break
		}
		if rerr := os.Remove(segs[i].path); rerr != nil {
			p.opts.Logger.Warn("segment prune", slog.String("error", rerr.Error()))
			break
		}
	}
	syncDir(p.opts.Dir)
}

// readSnapshotFile loads and CRC-checks one snapshot.
func readSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: short magic", filepath.Base(path))
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("durable: snapshot %s: bad magic", filepath.Base(path))
	}
	payload, _, err := readFrame(br)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", filepath.Base(path), err)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: decode: %w", filepath.Base(path), err)
	}
	return &snap, nil
}
