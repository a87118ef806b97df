package mm

// Mode selects which memory manager a structure allocates its cells from.
type Mode int

const (
	// ModeGC relies on the Go garbage collector for reclamation (see GC).
	ModeGC Mode = iota + 1
	// ModeRC uses the paper's reference-count scheme (§5; see RC).
	ModeRC
	// ModeEBR uses epoch-based reclamation: manual reclamation like RC,
	// but traversal references become one Pin/Unpin per operation instead
	// of a SafeRead/Release pair per hop (see EBR).
	ModeEBR
)

// String returns the mode's short name as used in benchmark labels.
func (m Mode) String() string {
	switch m {
	case ModeGC:
		return "gc"
	case ModeRC:
		return "rc"
	case ModeEBR:
		return "ebr"
	default:
		return "invalid"
	}
}

// ParseMode returns the mode named by s ("gc", "rc", or "ebr"),
// reporting whether the name was recognized.
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "gc":
		return ModeGC, true
	case "rc":
		return ModeRC, true
	case "ebr":
		return ModeEBR, true
	default:
		return 0, false
	}
}

// NewManager returns a fresh manager of the given mode. It panics on an
// invalid mode, which indicates a programming error at construction time.
func NewManager[T any](mode Mode) Manager[T] {
	switch mode {
	case ModeGC:
		return NewGC[T]()
	case ModeRC:
		return NewRC[T]()
	case ModeEBR:
		return NewEBR[T]()
	default:
		panic("mm: invalid Mode")
	}
}

// SetReclaimExtractor registers f on a manager that reclaims cells (rc,
// ebr — see RC.SetReclaimExtractor) and does nothing under gc, so a
// structure whose items hold counted references builds its manager with
// NewManager whatever the mode.
func SetReclaimExtractor[T any](m Manager[T], f func(item *T) (first, second *Node[T])) {
	if r, ok := m.(interface {
		SetReclaimExtractor(func(*T) (*Node[T], *Node[T]))
	}); ok {
		r.SetReclaimExtractor(f)
	}
}
