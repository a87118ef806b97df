package linearize

// This file extends the checker from the paper's dictionary
// specification to the valoisd wire specification, so real network
// histories — recorded client-side around internal/client calls — can be
// checked for linearizability. Two things differ from the in-memory
// dictionaries:
//
//  1. The sequential spec: SET is an upsert (the server calls the
//     dictionary's Upsert and always replies STORED), so a completed SET
//     succeeds in every state, unlike the paper's Insert which refuses
//     duplicates. GET and DELETE match Find and Delete.
//
//  2. Ambiguous retries: over a faulty network a SET or DELETE whose
//     response was lost (connection reset, deadline) may or may not have
//     executed server-side. Such operations are recorded with Event.Lost
//     and the checker accepts both outcomes — the operation linearizes at
//     some point after its invocation, or it never ran (see checkKey).
//     This is exactly why blind client retries of non-idempotent
//     operations are "at-least-once": each attempt whose reply is lost
//     leaves an ambiguity only the history checker can absorb.

// applyKV is the sequential single-key wire specification.
func applyKV(st keyState, e Event) (keyState, bool) {
	if e.Lost {
		switch e.Op {
		case OpFind:
			return st, true
		case OpInsert, OpUpsert:
			// A lost SET that executed overwrote the binding.
			return keyState{present: true, value: e.Value}, true
		case OpDelete:
			if !st.present {
				return st, true
			}
			return keyState{}, true
		default:
			return st, false
		}
	}
	switch e.Op {
	case OpFind: // GET: hit iff present, with the current binding
		if e.OK != st.present {
			return st, false
		}
		if st.present && e.Value != st.value {
			return st, false
		}
		return st, true
	case OpInsert, OpUpsert: // SET: an upsert, legal (and STORED) in every state
		if !e.OK {
			return st, false // the server never refuses a SET
		}
		return keyState{present: true, value: e.Value}, true
	case OpDelete: // DELETE: DELETED iff present
		if e.OK {
			if !st.present {
				return st, false
			}
			return keyState{}, true
		}
		if st.present {
			return st, false // NOT_FOUND while present is illegal
		}
		return st, true
	default:
		return st, false
	}
}

// CheckKV verifies a wire-level history against the sequential
// key-value specification of the valoisd protocol: OpUpsert events (and
// OpInsert events, read the same way) are SETs, OpFind events are GETs,
// OpDelete events are DELETEs.
// Events marked Lost are operations with no response; the checker
// accepts histories in which they executed (at any point after
// invocation) and histories in which they did not.
func CheckKV(history []Event) Result {
	return checkHistory(history, applyKV)
}
