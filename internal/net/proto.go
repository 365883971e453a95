// Package netga is the TCP network transport behind dist.Backend: the D
// and F global arrays live as shards in fockd server processes, and every
// attempt at a one-sided Get/Put/Acc is a length-prefixed framed RPC with
// a per-op deadline, an idempotency token (a retried or duplicated Acc is
// applied exactly once server-side), and automatic reconnection; the
// capped jittered retry over the attempts is dist.Retry's, as for the
// in-process array. core.Build and its lease/epoch recovery machinery run
// unchanged over this transport; a rank that loses a peer past its retry
// budget aborts, gets fenced, and its work is re-executed elsewhere
// (graceful degradation — see DESIGN.md, "Network transport and
// degradation ladder").
package netga

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire operations.
const (
	opHello      uint8 = iota + 1 // establish/validate a session on a fresh conn
	opGet                         // read one single-owner patch
	opPut                         // overwrite one single-owner patch (driver load)
	opAcc                         // accumulate alpha*data into one patch, token-deduped
	opPing                        // liveness probe
	opCheckpoint                  // session checkpoint: advance the dedup eviction generation
	_                             // 7: reserved (was the static membership-map query); answered as an unknown op
	opPromote                     // promote a standby to primary at the fence epoch in SEpoch
	opSubscribe                   // standby -> primary: hijack this conn into a replication stream

	// Elastic fleet ops (lease-based membership + live resharding).
	opJoin    // member -> fleet: register {id, addr, standby, incarnation} (JSON in Msg)
	opLeave   // member -> fleet: graceful leave; blocks are migrated off first
	opLease   // member -> fleet: heartbeat renewing the membership lease
	opView    // anyone -> fleet: fetch the full fleet view (members + placement)
	opFreeze  // fleet -> shard: freeze writes to proc (durable), return its D/F state + dedup tokens
	opMigrate // fleet -> shard: install a migrated block's state + tokens and host its proc
	opSetGen  // fleet -> shard: adopt placement generation PGen; Proc >= 0 also drops that proc

	// Stored-ERI spill ops (see DESIGN.md §11). Blobs are session-scoped
	// immutable values keyed by Token; deliberately NOT journaled,
	// snapshotted, or replicated — they are cache legs, and a miss after a
	// restart/failover just makes the client recompute the batch.
	opPutBlob // store a spill blob (key in Token, payload in Data); first write wins
	opGetBlob // fetch a spill blob by Token; statusErr blobMissMsg = miss

	// A job-scoped session's last client says goodbye so an admitting
	// table (see session.go) frees its arrays and dedup state at once.
	opBye // release this request's session (a pinned table acks and keeps it)
)

// blobMissMsg marks an opGetBlob statusErr answer as a plain cache miss
// (recompute), as opposed to a malformed request.
const blobMissMsg = "blob not found"

// Response statuses.
const (
	statusOK    uint8 = iota
	statusErr         // server rejected the request; not retryable
	statusRetry       // transient rejection (standby, stale shard epoch): retry after resync
)

// maxFrame bounds a frame body so a corrupt length prefix cannot ask for
// an absurd allocation.
const maxFrame = 64 << 20

// arrays per server: 0 = D (density, read-mostly), 1 = F (Fock
// accumulator, Acc target).
const numArrays = 2

// request is one client->server frame. Every request carries the client
// session so a reconnected conn needs no re-handshake; Hello installs a
// session (a new id opens one, or replaces a pinned table's) and validates
// geometry via R0=Rows, C0=Cols and the cut layout in Msg. SEpoch is the shard fence
// epoch the issuer believes the target serves at (0 = unfenced/legacy):
// a server at a different epoch answers statusRetry so stale clients
// resync and a superseded primary can never double-apply after failover.
type request struct {
	Op             uint8
	Array          uint8
	Session        uint64
	ReqID          uint64
	Token          uint64 // Acc idempotency token; 0 = no dedup
	SEpoch         uint64 // shard fence epoch; bumped by standby promotion
	PGen           uint64 // placement generation the issuer routed by; 0 = static placement
	Proc           int32  // issuing rank; -1 for driver-side ops
	R0, R1, C0, C1 int32
	Alpha          float64
	Msg            string    // JSON payload: the Hello's grid layout, a fleet op's member
	Tokens         []uint64  // migrated dedup tokens (opMigrate)
	Data           []float64 // patch payload; for opMigrate: D block then F block
}

// response is one server->client frame, matched to its request by ReqID.
// SEpoch reports the serving shard's current fence epoch on every
// response, and PGen its placement generation, so clients resync their
// routing state for free.
type response struct {
	Status uint8
	Dup    uint8 // Acc was a token-dedup hit: acknowledged, not re-applied
	ReqID  uint64
	SEpoch uint64
	PGen   uint64 // serving shard's placement generation (0 = static)
	Msg    string
	Tokens []uint64 // dedup tokens of a frozen block (opFreeze)
	Data   []float64
}

// reqHeaderLen is the fixed-size prefix of an encoded request:
// op+array (2) + session+reqid+token (24) + reserved (8) + sepoch (8) +
// pgen (8) + proc+4 coords (20) + alpha (8) + msg len (2) +
// token count (4) + data count (4).
const reqHeaderLen = 2 + 24 + 8 + 8 + 8 + 20 + 8 + 2 + 4 + 4

func encodeRequest(buf []byte, r *request) []byte {
	buf = buf[:0]
	buf = append(buf, r.Op, r.Array)
	buf = binary.LittleEndian.AppendUint64(buf, r.Session)
	buf = binary.LittleEndian.AppendUint64(buf, r.ReqID)
	buf = binary.LittleEndian.AppendUint64(buf, r.Token)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // reserved (was the worker epoch: fencing is the driver's retry loop's)
	buf = binary.LittleEndian.AppendUint64(buf, r.SEpoch)
	buf = binary.LittleEndian.AppendUint64(buf, r.PGen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Proc))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.R0))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.R1))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.C0))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.C1))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Alpha))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Msg)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Tokens)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Data)))
	buf = append(buf, r.Msg...)
	for _, t := range r.Tokens {
		buf = binary.LittleEndian.AppendUint64(buf, t)
	}
	for _, v := range r.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func decodeRequest(body []byte, r *request) error {
	if len(body) < reqHeaderLen {
		return fmt.Errorf("netga: short request frame (%d bytes)", len(body))
	}
	r.Op, r.Array = body[0], body[1]
	r.Session = binary.LittleEndian.Uint64(body[2:])
	r.ReqID = binary.LittleEndian.Uint64(body[10:])
	r.Token = binary.LittleEndian.Uint64(body[18:])
	// body[26:34] is reserved and ignored.
	r.SEpoch = binary.LittleEndian.Uint64(body[34:])
	r.PGen = binary.LittleEndian.Uint64(body[42:])
	r.Proc = int32(binary.LittleEndian.Uint32(body[50:]))
	r.R0 = int32(binary.LittleEndian.Uint32(body[54:]))
	r.R1 = int32(binary.LittleEndian.Uint32(body[58:]))
	r.C0 = int32(binary.LittleEndian.Uint32(body[62:]))
	r.C1 = int32(binary.LittleEndian.Uint32(body[66:]))
	r.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(body[70:]))
	ml := int(binary.LittleEndian.Uint16(body[78:]))
	nt := int(binary.LittleEndian.Uint32(body[80:]))
	n := int(binary.LittleEndian.Uint32(body[84:]))
	if len(body) != reqHeaderLen+ml+8*nt+8*n {
		return fmt.Errorf("netga: request frame length %d does not match msg %d + %d tokens + %d data values", len(body), ml, nt, n)
	}
	off := reqHeaderLen
	r.Msg = string(body[off : off+ml])
	off += ml
	r.Tokens = decodeUint64s(body[off:], nt)
	off += 8 * nt
	r.Data = decodeFloats(body[off:], n)
	return nil
}

// respHeaderLen: status+dup (2) + reqid (8) + sepoch (8) + pgen (8) +
// msg len (2) + token count (4) + data count (4).
const respHeaderLen = 2 + 8 + 8 + 8 + 2 + 4 + 4

func encodeResponse(buf []byte, r *response) []byte {
	buf = buf[:0]
	buf = append(buf, r.Status, r.Dup)
	buf = binary.LittleEndian.AppendUint64(buf, r.ReqID)
	buf = binary.LittleEndian.AppendUint64(buf, r.SEpoch)
	buf = binary.LittleEndian.AppendUint64(buf, r.PGen)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Msg)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Tokens)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Data)))
	buf = append(buf, r.Msg...)
	for _, t := range r.Tokens {
		buf = binary.LittleEndian.AppendUint64(buf, t)
	}
	for _, v := range r.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func decodeResponse(body []byte, r *response) error {
	if len(body) < respHeaderLen {
		return fmt.Errorf("netga: short response frame (%d bytes)", len(body))
	}
	r.Status, r.Dup = body[0], body[1]
	r.ReqID = binary.LittleEndian.Uint64(body[2:])
	r.SEpoch = binary.LittleEndian.Uint64(body[10:])
	r.PGen = binary.LittleEndian.Uint64(body[18:])
	ml := int(binary.LittleEndian.Uint16(body[26:]))
	nt := int(binary.LittleEndian.Uint32(body[28:]))
	n := int(binary.LittleEndian.Uint32(body[32:]))
	if len(body) != respHeaderLen+ml+8*nt+8*n {
		return fmt.Errorf("netga: response frame length %d does not match msg %d + %d tokens + %d data values", len(body), ml, nt, n)
	}
	off := respHeaderLen
	r.Msg = string(body[off : off+ml])
	off += ml
	r.Tokens = decodeUint64s(body[off:], nt)
	off += 8 * nt
	r.Data = decodeFloats(body[off:], n)
	return nil
}

func decodeUint64s(b []byte, n int) []uint64 {
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// A record is one durable/replicated state mutation: an 8-byte sequence
// number followed by an encoded request. The same encoding backs both the
// write-ahead journal (wrapped in a crc frame there) and the primary ->
// standby replication stream (wrapped in a wire frame there), so replay
// and replication apply through one code path.
func encodeRecord(buf []byte, seq uint64, req *request) []byte {
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	body := encodeRequest(nil, req)
	return append(buf, body...)
}

func decodeRecord(body []byte, req *request) (seq uint64, err error) {
	if len(body) < 8 {
		return 0, fmt.Errorf("netga: short record (%d bytes)", len(body))
	}
	seq = binary.LittleEndian.Uint64(body)
	if err := decodeRequest(body[8:], req); err != nil {
		return 0, err
	}
	return seq, nil
}

func decodeFloats(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// writeFrame writes a uint32 length prefix followed by body.
func writeFrame(w io.Writer, body []byte) error {
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(len(body)))
	if _, err := w.Write(pfx[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame body.
func readFrame(r io.Reader) ([]byte, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(pfx[:])
	if n > maxFrame {
		return nil, fmt.Errorf("netga: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
