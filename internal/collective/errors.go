package collective

import (
	"errors"
	"fmt"

	"repro/internal/transport"
)

// ErrTagOverflow is returned when a collective's (chunk, segment) tag space
// does not fit the int32 message Chunk field: rank·segment products beyond
// MaxInt32 would silently alias distinct segments onto one tag and corrupt
// the protocol checks, so the schedule refuses to start instead.
var ErrTagOverflow = errors.New("collective: segment tag overflow")

// ProtocolError reports a message that does not belong to the collective
// step that received it — the signature of interleaved collectives (or a
// stray sender) on one mesh. It carries the full expected-vs-received
// coordinates so the failure is diagnosable from the message alone, and
// unwraps to ErrProtocol so existing errors.Is checks keep working.
type ProtocolError struct {
	// Op names the collective phase that observed the violation
	// (e.g. "ring", "broadcast", "tree-reduce").
	Op string
	// From is the parent-mesh rank the offending message came from.
	From int32
	// WantIter/GotIter are the expected and received iteration tags.
	WantIter, GotIter int64
	// WantTag/GotTag are the expected and received chunk/segment tags.
	WantTag, GotTag int32
	// WantType/GotType are the expected and received message types.
	WantType, GotType transport.MsgType
}

// Error implements error.
func (e *ProtocolError) Error() string {
	return fmt.Sprintf("collective: protocol violation in %s: from rank %d got (iter=%d tag=%d type=%d), want (iter=%d tag=%d type=%d)",
		e.Op, e.From, e.GotIter, e.GotTag, e.GotType, e.WantIter, e.WantTag, e.WantType)
}

// Unwrap makes errors.Is(err, ErrProtocol) hold.
func (e *ProtocolError) Unwrap() error { return ErrProtocol }

// checkMsg validates a received message against the step's expectation and
// returns a fully populated *ProtocolError on mismatch. The caller still
// owns msg.Payload either way.
func checkMsg(op string, msg transport.Message, wantType transport.MsgType, wantIter int64, wantTag int32) error {
	if msg.Type == wantType && msg.Iter == wantIter && msg.Chunk == wantTag {
		return nil
	}
	return &ProtocolError{
		Op:       op,
		From:     msg.From,
		WantIter: wantIter, GotIter: msg.Iter,
		WantTag: wantTag, GotTag: msg.Chunk,
		WantType: wantType, GotType: msg.Type,
	}
}
