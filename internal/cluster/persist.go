package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"exterminator/internal/atomicfile"
	"exterminator/internal/cumulative"
)

// Coordinator snapshot persistence: the merge tier's state is exactly
// its per-partition mirrors plus the journal cursor (seq, epoch) each
// mirror is valid at — the merged history and the patch log are pure
// functions of the mirrors, so persisting mirrors+cursors is enough to
// restart a coordinator without re-pulling (or worse, double-absorbing)
// every partition's full evidence. On restore the merged history is
// rebuilt from the mirrors and a correction pass re-derives the patch
// log; polling then resumes from the persisted cursors, so partitions
// that kept running answer with cheap deltas instead of full resyncs.
// This closes the ROADMAP "coordinator snapshot persistence" item.

const (
	coordSnapMagic   = 0x4E534358 // "XCSN" little-endian
	coordSnapVersion = 3
	maxSnapParts     = 1 << 12
	maxMirrorBytes   = 1 << 30
	maxAlertBytes    = 1 << 26
)

// SaveSnapshot writes the coordinator's membership (the ring version and
// node list, so a restarted coordinator keeps the rebalanced topology
// and its monotonic version even when the operator's flag list is
// stale), mirrors, cursors and the triage alerter's exactly-once state
// (fired records and the undelivered queue, so a restart neither
// re-fires a webhook already sent nor drops one still pending) to path
// (atomicfile.Write — a crash mid-write never corrupts the previous
// snapshot). The container has one version, coordSnapVersion;
// the decoder rejects every other.
func (c *Coordinator) SaveSnapshot(path string) error {
	ringVersion, nodes := c.ring.Membership()
	alerts, err := c.triage.AlertState()
	if err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	c.mu.Lock()
	type entry struct {
		base       string
		seq, epoch uint64
		mirror     []byte
	}
	entries := make([]entry, 0, len(c.parts))
	for _, p := range c.parts {
		var buf bytes.Buffer
		if err = p.mirror.Encode(&buf); err != nil {
			break
		}
		entries = append(entries, entry{base: p.base, seq: p.seq, epoch: p.epoch, mirror: buf.Bytes()})
	}
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}

	err = atomicfile.Write(path, 0o600, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		u32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
		u64 := func(v uint64) { binary.Write(bw, binary.LittleEndian, v) }
		u32(coordSnapMagic)
		u32(coordSnapVersion)
		u64(ringVersion)
		u32(uint32(len(nodes)))
		for _, n := range nodes {
			u32(uint32(len(n)))
			bw.WriteString(n)
		}
		u32(uint32(len(entries)))
		for _, e := range entries {
			u32(uint32(len(e.base)))
			bw.WriteString(e.base)
			u64(e.seq)
			u64(e.epoch)
			u64(uint64(len(e.mirror)))
			bw.Write(e.mirror)
		}
		u64(uint64(len(alerts)))
		bw.Write(alerts)
		return bw.Flush()
	})
	if err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	return nil
}

// coordSnapEntry is one partition's restored state.
type coordSnapEntry struct {
	seq, epoch uint64
	mirror     *cumulative.History
}

// coordSnapshot is the decoded form of a SaveSnapshot file.
type coordSnapshot struct {
	ringVersion uint64
	nodes       []string
	entries     map[string]coordSnapEntry
	alerts      []byte
}

// readBlob reads exactly n bytes without trusting n for the allocation:
// a forged length prefix in a corrupt snapshot must fail with a short
// read, not a multi-gigabyte up-front allocation.
func readBlob(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readCoordSnapshot decodes a coordinator snapshot container of version
// coordSnapVersion. Corrupt or truncated input, and any other version,
// returns an error; no input may panic or force allocations beyond the
// bytes actually present (fuzzed by FuzzXCSNDecode).
func readCoordSnapshot(r io.Reader) (*coordSnapshot, error) {
	br := bufio.NewReader(r)
	var readErr error
	u32 := func() uint32 {
		var v uint32
		if readErr == nil {
			readErr = binary.Read(br, binary.LittleEndian, &v)
		}
		return v
	}
	u64 := func() uint64 {
		var v uint64
		if readErr == nil {
			readErr = binary.Read(br, binary.LittleEndian, &v)
		}
		return v
	}
	if m := u32(); readErr != nil || m != coordSnapMagic {
		if readErr == nil {
			readErr = errors.New("bad magic")
		}
		return nil, readErr
	}
	version := u32()
	if readErr != nil || version != coordSnapVersion {
		if readErr == nil {
			readErr = fmt.Errorf("unsupported version %d", version)
		}
		return nil, readErr
	}
	snap := &coordSnapshot{ringVersion: u64()}
	nn := u32()
	if readErr != nil || nn > maxSnapParts {
		return nil, orImplausible(readErr)
	}
	for i := uint32(0); i < nn; i++ {
		nl := u32()
		if readErr != nil || nl > 4096 {
			return nil, orImplausible(readErr)
		}
		buf, err := readBlob(br, uint64(nl))
		if err != nil {
			return nil, err
		}
		snap.nodes = append(snap.nodes, string(buf))
	}
	n := u32()
	if readErr != nil || n > maxSnapParts {
		return nil, orImplausible(readErr)
	}
	snap.entries = make(map[string]coordSnapEntry)
	for i := uint32(0); i < n; i++ {
		bl := u32()
		if readErr != nil || bl > 4096 {
			return nil, orImplausible(readErr)
		}
		base, err := readBlob(br, uint64(bl))
		if err != nil {
			return nil, err
		}
		seq, epoch := u64(), u64()
		ml := u64()
		if readErr != nil || ml > maxMirrorBytes {
			return nil, orImplausible(readErr)
		}
		// Mirrors are length-prefixed because the history decoder reads
		// through its own buffer: handing it the rest of the stream would
		// swallow the next entry's bytes.
		mb, err := readBlob(br, ml)
		if err != nil {
			return nil, err
		}
		mirror, err := cumulative.DecodeHistory(bytes.NewReader(mb))
		if err != nil {
			return nil, err
		}
		snap.entries[string(base)] = coordSnapEntry{seq: seq, epoch: epoch, mirror: mirror}
	}
	al := u64()
	if readErr != nil || al > maxAlertBytes {
		return nil, orImplausible(readErr)
	}
	snap.alerts, readErr = readBlob(br, al)
	if readErr != nil {
		return nil, readErr
	}
	return snap, nil
}

// LoadSnapshot restores mirrors and cursors from a snapshot written by
// SaveSnapshot, rebuilds the merged history, and runs a correction pass
// so the patch log is warm before the first client poll. Mirrors are
// matched to the configured partitions by base URL: partitions added
// since the snapshot start empty (their first poll full-resyncs), and
// snapshot entries for partitions no longer configured are dropped. A
// missing file is not an error (fresh start).
func (c *Coordinator) LoadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("cluster: restore: %w", err)
	}
	defer f.Close()
	snap, err := readCoordSnapshot(f)
	if err != nil {
		return fmt.Errorf("cluster: restore %s: %w", path, err)
	}
	ringVersion, nodes := snap.ringVersion, snap.nodes
	restored, alerts := snap.entries, snap.alerts

	// The snapshot's membership is authoritative: it reflects any
	// rebalance completed since the operator's flag list was written, and
	// restoring the monotonic ring version is what keeps the next
	// rebalance's announcements ahead of the partitions' requirements.
	if len(nodes) > 0 {
		c.ring.restoreMembership(ringVersion, nodes)
		c.setPartitions(nodes)
	}
	c.mu.Lock()
	for _, p := range c.parts {
		e, ok := restored[p.base]
		if !ok {
			continue
		}
		p.mirror = e.mirror
		p.seq, p.epoch = e.seq, e.epoch
	}
	c.corrector.MarkFull()
	c.mu.Unlock()
	// Alert state must land before the warm-up correction pass: the pass
	// re-ranks the restored evidence, and only the restored fired records
	// stop it from re-arming (and later re-firing) alerts already sent by
	// the previous incarnation.
	if err := c.triage.RestoreAlertState(alerts); err != nil {
		return fmt.Errorf("cluster: restore %s: %w", path, err)
	}
	c.Correct()
	return nil
}

func orImplausible(err error) error {
	if err != nil {
		return err
	}
	return errors.New("implausible entry count")
}
