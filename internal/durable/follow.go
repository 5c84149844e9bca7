package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Tail-follow reader. A Follower streams the log's records in sequence
// order as they become readable, surviving segment rotation and
// group-commit batching: it blocks until the record it wants has been
// flushed into a segment file (the Plane's visible watermark), opens
// segment files with its own descriptors, and re-lists the directory
// when a segment runs dry to pick up the rotation successor. It is the
// primary half of log-shipping replication — a replication server holds
// one Follower per connected standby.
//
// A Follower never reads past the visible watermark, so it cannot see a
// torn frame in a healthy log: everything at or below the watermark was
// buffered whole and flushed whole. A short or checksum-failing frame
// below the watermark therefore gets one retry (the read may have raced
// pruning) and is then reported as real corruption.

var (
	// ErrCompacted reports that the requested resume point has been
	// pruned into a snapshot; the consumer must bootstrap from a
	// snapshot instead of the log tail.
	ErrCompacted = errors.New("durable: requested sequence compacted into a snapshot")
	// ErrFollowerClosed is returned by Next after Close.
	ErrFollowerClosed = errors.New("durable: follower closed")
)

// errRetryFollow signals an internal transient condition (rotation or
// prune race): re-check the watermark and try again.
var errRetryFollow = errors.New("durable: follower retry")

// Follower is a sequential reader positioned after some sequence
// number. Not safe for concurrent use; Close may be called from another
// goroutine to unblock a pending Next.
type Follower struct {
	p    *Plane
	next uint64 // sequence number of the next record to deliver

	f        *os.File
	br       *bufio.Reader
	path     string
	segFirst uint64
	offset   int64 // byte offset of the next unread frame within f

	// corruptAt remembers the offset of a frame that failed to decode so
	// a second failure at the same spot is reported instead of retried.
	corruptAt int64

	done bool // guarded by p.mu; Close broadcasts on p.cond
}

// Follow returns a Follower that yields records with Seq > afterSeq in
// order. Pass 0 to stream the whole retained log; if afterSeq+1 has
// been pruned into a snapshot, the first Next returns ErrCompacted.
func (p *Plane) Follow(afterSeq uint64) *Follower {
	return &Follower{p: p, next: afterSeq + 1, corruptAt: -1}
}

// Close releases the follower's file handle and unblocks a concurrent
// Next, which returns ErrFollowerClosed.
func (fl *Follower) Close() {
	fl.p.mu.Lock()
	fl.done = true
	fl.p.cond.Broadcast()
	fl.p.mu.Unlock()
}

// Next blocks until the next record is readable and returns its
// sequence number and frame payload: the record's JSON exactly as the
// appender encoded it, which a replication stream ships as is. Only the
// sequence is decoded. It returns ErrClosed once the log has closed (or
// crashed) and every flushed record has been delivered, ErrCompacted
// if the resume point has been pruned, and ErrFollowerClosed after
// Close.
func (fl *Follower) Next() (uint64, []byte, error) {
	for {
		fl.p.mu.Lock()
		for !fl.done && fl.p.visible < fl.next && !fl.p.closed && fl.p.err == nil {
			fl.p.cond.Wait()
		}
		done := fl.done
		visible := fl.p.visible
		planeDead := fl.p.closed || fl.p.err != nil
		fl.p.mu.Unlock()
		if done {
			fl.closeFile()
			return 0, nil, ErrFollowerClosed
		}
		if visible < fl.next {
			// The plane ended before this sequence was flushed; nothing
			// more will ever become readable.
			fl.closeFile()
			return 0, nil, ErrClosed
		}
		seq, payload, err := fl.readNext(visible)
		if err == errRetryFollow {
			if planeDead {
				// No new flush can resolve the race; treat as EOF.
				fl.closeFile()
				return 0, nil, ErrClosed
			}
			// Benign race with rotation or pruning: the segment list or
			// file content is mid-change. Back off briefly.
			time.Sleep(200 * time.Microsecond)
			continue
		}
		return seq, payload, err
	}
}

// Pending reports whether a record is already readable without
// blocking; the replication server uses it to batch stream flushes.
func (fl *Follower) Pending() bool {
	fl.p.mu.Lock()
	defer fl.p.mu.Unlock()
	return fl.p.visible >= fl.next
}

// readNext reads forward until it delivers the record numbered
// fl.next and its frame payload. Caller guarantees fl.next <= visible.
func (fl *Follower) readNext(visible uint64) (uint64, []byte, error) {
	for {
		if fl.f == nil {
			if err := fl.openSegmentFor(fl.next); err != nil {
				return 0, nil, err
			}
		}
		payload, n, err := readFrame(fl.br)
		if err == io.EOF {
			// Segment exhausted but the wanted record is flushed: it
			// lives in a rotation successor. (If listing finds none yet
			// we raced the rotation; retry.)
			rotated, rerr := fl.advanceSegment()
			if rerr != nil {
				return 0, nil, rerr
			}
			if !rotated {
				return 0, nil, errRetryFollow
			}
			continue
		}
		var corrupt *corruptError
		if errors.As(err, &corrupt) {
			// Below the watermark every frame was flushed whole, so a
			// bad read is either a race with pruning (the file vanished
			// under us mid-read) or genuine corruption. Re-open at the
			// same offset once; a repeat is real.
			if fl.corruptAt == fl.offset {
				return 0, nil, fmt.Errorf("durable: follower: corrupt frame in %s at offset %d: %s", fl.path, fl.offset, corrupt.reason)
			}
			fl.corruptAt = fl.offset
			if rerr := fl.reopenAtOffset(); rerr != nil {
				return 0, nil, rerr
			}
			return 0, nil, errRetryFollow
		}
		if err != nil {
			return 0, nil, fmt.Errorf("durable: follower: reading %s: %w", fl.path, err)
		}
		fl.offset += n
		fl.corruptAt = -1
		// The contiguity check needs the sequence alone; whoever
		// applies the record decodes the payload in full.
		var rec struct {
			Seq uint64 `json:"seq"`
		}
		if derr := json.Unmarshal(payload, &rec); derr != nil {
			return 0, nil, fmt.Errorf("durable: follower: decoding record in %s: %w", fl.path, derr)
		}
		if rec.Seq < fl.next {
			// Resumed mid-segment: skip records already delivered.
			continue
		}
		if rec.Seq != fl.next {
			return 0, nil, fmt.Errorf("durable: follower: log discontinuity in %s: want seq %d, found %d", fl.path, fl.next, rec.Seq)
		}
		fl.next++
		return rec.Seq, payload, nil
	}
}

// openSegmentFor positions the follower at the start of the newest
// segment whose first sequence is <= seq. ErrCompacted if every
// retained segment starts after seq (or none remain).
func (fl *Follower) openSegmentFor(seq uint64) error {
	segs, err := listSegments(fl.p.opts.Dir)
	if err != nil {
		return fmt.Errorf("durable: follower: %w", err)
	}
	idx := -1
	for i := range segs {
		if segs[i].firstSeq <= seq {
			idx = i
		}
	}
	if idx < 0 {
		return ErrCompacted
	}
	return fl.openSegment(segs[idx])
}

// advanceSegment closes the current segment and opens its successor —
// the next segment on disk whose first sequence can contain fl.next.
// Returns false (and leaves the current segment open) when no successor
// exists yet.
func (fl *Follower) advanceSegment() (bool, error) {
	segs, err := listSegments(fl.p.opts.Dir)
	if err != nil {
		return false, fmt.Errorf("durable: follower: %w", err)
	}
	for i := range segs {
		if segs[i].firstSeq > fl.segFirst && segs[i].firstSeq <= fl.next {
			fl.closeFile()
			if oerr := fl.openSegment(segs[i]); oerr != nil {
				return false, oerr
			}
			return true, nil
		}
	}
	return false, nil
}

// openSegment opens one segment file and verifies its magic.
func (fl *Follower) openSegment(si segmentInfo) error {
	f, err := os.Open(si.path)
	if err != nil {
		if os.IsNotExist(err) {
			// Pruned between listing and open; the caller re-resolves.
			return errRetryFollow
		}
		return fmt.Errorf("durable: follower: %w", err)
	}
	br := bufio.NewReader(f)
	magic := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != segmentMagic {
		f.Close()
		return fmt.Errorf("durable: follower: segment %s: bad magic", si.name)
	}
	fl.f = f
	fl.br = br
	fl.path = si.path
	fl.segFirst = si.firstSeq
	fl.offset = int64(len(segmentMagic))
	return nil
}

// reopenAtOffset discards buffered state and re-reads the current
// segment from the follower's frame offset.
func (fl *Follower) reopenAtOffset() error {
	path, offset := fl.path, fl.offset
	fl.closeFile()
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return errRetryFollow
		}
		return fmt.Errorf("durable: follower: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("durable: follower: %w", err)
	}
	fl.f = f
	fl.br = bufio.NewReader(f)
	fl.path = path
	fl.offset = offset
	return nil
}

func (fl *Follower) closeFile() {
	if fl.f != nil {
		fl.f.Close()
		fl.f = nil
		fl.br = nil
	}
}
