package workflow

import (
	"encoding/binary"
	"fmt"
	"io"

	"hpa/internal/flatwire"
)

// This file is the task wire's framing: the length-prefixed frames the
// coordinator and its workers exchange over one stream connection. A
// request frame names a registered kernel and carries its flat argument
// body; a reply frame answers one request by id with a status, the
// worker-side compute time and value-block byte counts, and the kernel's
// flat reply body (or an error message). Requests on one connection are
// answered in any order, so a worker runs them concurrently.
//
// Layout (little-endian):
//
//	request: length u32 | magic u32 | version u8 | id u64 | opLen u8 | op | body
//	reply:   length u32 | magic u32 | version u8 | id u64 | status u8
//	         computeNS u64 | valueRaw u64 | valueCoded u64 | body
//
// length counts the bytes after itself. computeNS is the time the worker
// spent inside the kernel (argument decode, compute, reply encode), so the
// coordinator can tell the wire's share of a round trip from the
// worker's. valueRaw and valueCoded total the XOR value blocks the kernel
// decoded from its arguments (flatwire.Reader.ValueBytes): together with
// the blocks the coordinator decodes from the reply, they attribute every
// value block that crossed the wire to exactly one task.

const (
	requestMagic uint32 = 0x48505251 // "HPRQ"
	replyMagic   uint32 = 0x48505250 // "HPRP"

	// Reply statuses.
	statusOK  byte = 0
	statusErr byte = 1

	// maxFrame bounds a frame's declared length, so a corrupt prefix
	// fails the connection instead of driving a giant allocation.
	maxFrame = 1 << 30
	// frameChunk is how much of a large frame must actually arrive before
	// the reader allocates the full declared length.
	frameChunk = 4 << 20

	// replyHeader is a reply frame's size before its body.
	replyHeader = 4 + 4 + 1 + 8 + 1 + 3*8
)

// request is one decoded request frame.
type request struct {
	ID   uint64
	Op   string
	Body []byte
}

// reply is one decoded reply frame.
type reply struct {
	ID         uint64
	Status     byte
	ComputeNS  int64
	ValueRaw   int64
	ValueCoded int64
	// Body is the kernel's reply, or the error message when Status is
	// statusErr.
	Body []byte
}

// beginRequest appends a request frame's header to b with the length
// left blank; the caller appends the body and seals the frame with
// endFrame. op must be at most 255 bytes (RegisterKernel enforces it).
func beginRequest(b []byte, id uint64, op string) []byte {
	b = append(b, 0, 0, 0, 0)
	b = flatwire.AppendHeader(b, requestMagic)
	b = flatwire.AppendU64(b, id)
	b = append(b, byte(len(op)))
	return append(b, op...)
}

// appendReplyHeader appends a reply frame's header to b, its length
// covering rep.Body, which the caller writes right after it.
func appendReplyHeader(b []byte, rep *reply) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(replyHeader-4+len(rep.Body)))
	b = flatwire.AppendHeader(b, replyMagic)
	b = flatwire.AppendU64(b, rep.ID)
	b = append(b, rep.Status)
	b = flatwire.AppendI64(b, rep.ComputeNS)
	b = flatwire.AppendI64(b, rep.ValueRaw)
	return flatwire.AppendI64(b, rep.ValueCoded)
}

// endFrame writes the length prefix of the frame starting at start.
func endFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// readFrame reads one length-prefixed frame and returns the bytes after
// the prefix. A frame above frameChunk is allocated in full only once its
// first frameChunk bytes arrived, so a short stream cannot force a giant
// allocation.
func readFrame(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(prefix[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("workflow: %w: frame of %d bytes exceeds %d", flatwire.ErrMalformed, n, maxFrame)
	}
	first := min(n, frameChunk)
	buf := make([]byte, first)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, frameEOF(err)
	}
	if n > first {
		full := make([]byte, n)
		copy(full, buf)
		if _, err := io.ReadFull(r, full[first:]); err != nil {
			return nil, frameEOF(err)
		}
		buf = full
	}
	return buf, nil
}

// frameEOF reports a stream that ended inside a frame as truncated.
func frameEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readRequest reads and validates one request frame.
func readRequest(r io.Reader) (*request, error) {
	frame, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	fr := flatwire.NewReader(frame)
	fr.Header(requestMagic, "request frame")
	req := &request{ID: fr.U64()}
	n := int(fr.U8())
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("workflow: %w", err)
	}
	rest := frame[len(frame)-fr.Remaining():]
	if n > len(rest) {
		return nil, fmt.Errorf("workflow: %w: request op of %d bytes in %d", flatwire.ErrMalformed, n, len(rest))
	}
	req.Op, req.Body = string(rest[:n]), rest[n:]
	return req, nil
}

// readReply reads and validates one reply frame.
func readReply(r io.Reader) (*reply, error) {
	frame, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	fr := flatwire.NewReader(frame)
	fr.Header(replyMagic, "reply frame")
	rep := &reply{ID: fr.U64(), Status: fr.U8()}
	rep.ComputeNS = fr.I64()
	rep.ValueRaw = fr.I64()
	rep.ValueCoded = fr.I64()
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("workflow: %w", err)
	}
	if rep.Status > statusErr || rep.ComputeNS < 0 || rep.ValueRaw < 0 || rep.ValueCoded < 0 {
		return nil, fmt.Errorf("workflow: %w: reply frame header out of range", flatwire.ErrMalformed)
	}
	rep.Body = frame[len(frame)-fr.Remaining():]
	return rep, nil
}
