package framework

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// A Fact is a datum an analyzer attaches to a named object (typically a
// function) so that analysis of one package can inform analysis of the
// packages that import it, mirroring analysis.Fact. The lfcheck suite uses
// facts for per-function reference-count summaries ("returns a +1
// reference", "releases parameter i"), computed bottom-up over the
// `go list -deps` load order; see internal/analysis/refbalance.
//
// Fact values must be pointers, and a given analyzer registers the fact
// types it produces in Analyzer.FactTypes, which also signals the driver
// that the analyzer needs its dependencies analyzed first.
type Fact interface {
	// AFact marks the type as a Fact; it is never called.
	AFact()
}

// FactStore holds the facts exported while analyzing a package graph.
//
// The canonical go/analysis framework keys facts by types.Object identity.
// This loader type-checks a package once per role it plays (root with
// syntax, plain dependency), so two *types.Func values can describe the
// same function; the store therefore keys facts by the stable (package
// path, receiver, name) string of ObjectKey instead, which is identical
// across instances.
type FactStore struct {
	m map[factKey]Fact
}

type factKey struct {
	obj string
	typ reflect.Type
}

// NewFactStore returns an empty store. One store is shared by every pass
// of one driver run.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

// export records fact for obj, replacing any previous fact of the same
// dynamic type.
func (s *FactStore) export(obj types.Object, fact Fact) {
	if key := ObjectKey(obj); key != "" {
		s.m[factKey{obj: key, typ: reflect.TypeOf(fact)}] = fact
	}
}

// imports copies the stored fact of fact's dynamic type for obj into fact,
// reporting whether one was found. fact must be a pointer, as every Fact
// is.
func (s *FactStore) imp(obj types.Object, fact Fact) bool {
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	stored, ok := s.m[factKey{obj: key, typ: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Keys returns the sorted object keys that carry at least one fact (for
// tests and debugging).
func (s *FactStore) Keys() []string {
	seen := make(map[string]bool)
	for k := range s.m {
		seen[k.obj] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ObjectKey returns a stable cross-instance identifier for a package-level
// object or method: "pkgpath.Name" for package-level objects and
// "pkgpath.Recv.Name" for methods (the receiver's named type, pointerness
// and type arguments stripped). Objects without a package (builtins, nil)
// have no key.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(obj.Pkg().Path())
	b.WriteByte('.')
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			b.WriteString(recvName(sig))
			b.WriteByte('.')
		}
	}
	b.WriteString(obj.Name())
	return b.String()
}

// recvName names a method's receiver type: the named type's name, with any
// pointer indirection and instantiation stripped, or a best-effort string
// for unnamed receivers.
func recvName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	default:
		return fmt.Sprintf("(%s)", t)
	}
}

// ExportObjectFact records fact for obj in the driver's fact store, making
// it visible to later passes over packages that import this one. It is a
// no-op outside a facts-enabled driver run.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts == nil {
		return
	}
	p.Facts.export(obj, fact)
}

// ImportObjectFact copies the fact of fact's dynamic type previously
// exported for obj into fact, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	return p.Facts.imp(obj, fact)
}
