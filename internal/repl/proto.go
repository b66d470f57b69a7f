// Package repl implements physical replication for the store: a
// primary-side WAL shipper that streams committed frames over TCP, and a
// follower that replays them into its own MVCC version chain and serves
// lock-free snapshot reads.
//
// The unit of replication is the WAL frame payload — the exact bytes the
// primary appended to its log. Every message carries the same CRC32-IEEE
// checksum the on-disk WAL frame format uses, so a frame is covered by
// one checksum from the primary's disk, across the wire, to the
// follower's disk. A follower that sees a checksum mismatch, a gap, or
// any other inconsistency drops the connection and re-handshakes; the
// primary answers a handshake with log-offset catch-up when it still has
// the frames, or a full snapshot when it does not (or when the follower
// asks for one). Followers resync, they never diverge.
//
// See docs/replication.md for the protocol, the staleness bound and the
// resync rules.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// protoMagic opens both hello messages; the trailing digits version
	// the protocol. v2 added the replication epoch to both directions of
	// the handshake and a status byte to the reply (fencing).
	protoMagic = "BFREPL02"

	// helloSize is the follower's hello: magic, last applied seq,
	// replication epoch, flags.
	helloSize = len(protoMagic) + 8 + 8 + 1
	// helloReplySize is the primary's reply: magic, status, head seq,
	// replication epoch.
	helloReplySize = len(protoMagic) + 1 + 8 + 8

	// flagSnapshot asks the primary for a full snapshot regardless of the
	// advertised seq — the follower's divergence-recovery path, and the
	// only admissible way for a lower-epoch node to rejoin (the snapshot
	// carries the primary's epoch, which the resync adopts).
	flagSnapshot byte = 1 << 0

	// Handshake reply statuses. Anything but statusOK ends the session
	// right after the reply; no feed follows.
	statusOK byte = 0
	// statusFencedStale: the follower's epoch is behind the primary's and
	// it did not ask for a snapshot. Commit seqs are not comparable across
	// epochs (both timelines extended the shared prefix independently), so
	// offset catch-up could silently merge phantom commits — the follower
	// must reconnect with flagSnapshot and resync wholesale.
	statusFencedStale byte = 1
	// statusFencedAhead: the follower's epoch is AHEAD of the primary's —
	// the primary is the zombie here (a resurrected ex-primary still
	// shipping its abandoned timeline). The follower must not apply
	// anything from it, and must NOT resync either; it keeps retrying
	// until the address serves the newer timeline.
	statusFencedAhead byte = 2

	// Message types, primary → follower. Each message is
	// [1 type][4 LE payload len][4 LE CRC32-IEEE of payload][payload].
	msgFrame     byte = 'F' // payload = one WAL frame payload (walcodec)
	msgSnapBegin byte = 'S' // payload = 8-byte LE snapshot seq
	msgSnapChunk byte = 'C' // payload = next run of snapshot bytes
	msgSnapEnd   byte = 'Z' // payload empty
	msgHeartbeat byte = 'H' // payload = 8-byte LE primary head seq

	msgHeaderSize = 9
	// maxMsgSize bounds any single message; mirrors the WAL's own frame
	// limit so a corrupt length is rejected, not allocated.
	maxMsgSize = 1 << 30
)

// writeHello sends the follower's handshake: its last applied commit
// seq, its replication epoch, and flags.
func writeHello(w io.Writer, lastSeq, epoch uint64, flags byte) error {
	buf := make([]byte, 0, helloSize)
	buf = append(buf, protoMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, lastSeq)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = append(buf, flags)
	_, err := w.Write(buf)
	return err
}

// readHello reads the follower's handshake.
func readHello(r io.Reader) (lastSeq, epoch uint64, flags byte, err error) {
	buf := make([]byte, helloSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, 0, err
	}
	if string(buf[:len(protoMagic)]) != protoMagic {
		return 0, 0, 0, fmt.Errorf("repl: bad handshake magic")
	}
	lastSeq = binary.LittleEndian.Uint64(buf[len(protoMagic):])
	epoch = binary.LittleEndian.Uint64(buf[len(protoMagic)+8:])
	return lastSeq, epoch, buf[helloSize-1], nil
}

// writeHelloReply sends the primary's handshake reply: the fencing
// status, its head seq and its replication epoch.
func writeHelloReply(w io.Writer, status byte, headSeq, epoch uint64) error {
	buf := make([]byte, 0, helloReplySize)
	buf = append(buf, protoMagic...)
	buf = append(buf, status)
	buf = binary.LittleEndian.AppendUint64(buf, headSeq)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	_, err := w.Write(buf)
	return err
}

// readHelloReply reads the primary's handshake reply.
func readHelloReply(r io.Reader) (status byte, headSeq, epoch uint64, err error) {
	buf := make([]byte, helloReplySize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, 0, err
	}
	if string(buf[:len(protoMagic)]) != protoMagic {
		return 0, 0, 0, fmt.Errorf("repl: bad handshake magic")
	}
	status = buf[len(protoMagic)]
	headSeq = binary.LittleEndian.Uint64(buf[len(protoMagic)+1:])
	epoch = binary.LittleEndian.Uint64(buf[len(protoMagic)+9:])
	return status, headSeq, epoch, nil
}

// writeMsg frames and writes one message. The checksum is computed over
// the payload — for msgFrame that makes it the same value as the WAL
// frame CRC the payload was (or will be) stored under.
func writeMsg(w io.Writer, typ byte, payload []byte) error {
	var hdr [msgHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readMsg reads and checksums one message. A CRC mismatch or implausible
// length is an error — the caller treats the connection as torn and
// resyncs.
func readMsg(r *bufio.Reader) (byte, []byte, error) {
	var hdr [msgHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[1:5])
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	if length > maxMsgSize {
		return 0, nil, fmt.Errorf("repl: implausible message length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, fmt.Errorf("repl: message checksum mismatch")
	}
	return hdr[0], payload, nil
}

// msgBuffered reports whether the next message sits whole in r's buffer,
// so that readMsg would return it without waiting for the network.
func msgBuffered(r *bufio.Reader) bool {
	if r.Buffered() < msgHeaderSize {
		return false
	}
	hdr, _ := r.Peek(msgHeaderSize) // already buffered: cannot block or fail
	return r.Buffered()-msgHeaderSize >= int(binary.LittleEndian.Uint32(hdr[1:5]))
}

// u64payload encodes one uint64 as a message payload.
func u64payload(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}
