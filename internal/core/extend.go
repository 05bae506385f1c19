package core

import (
	"semilocal/internal/steadyant"
)

// Incremental kernel maintenance: Theorem 3.4 lets a kernel grow with
// its strings. Appending a suffix to a costs one solve over the suffix
// plus one braid multiplication of the overlap order n = |b| (the
// other m+m' strands are copied through in linear time) — far cheaper
// than re-solving when the suffix is short, and the basis for streaming
// comparison. ExtendB is the mirror image: its overlap is m = |a|.

// ExtendA returns the kernel of (a+suffix, b), where k is the kernel of
// (a, b) and b is the same string k was computed for. The suffix strip
// is solved with cfg and composed onto k by braid multiplication.
func (k *Kernel) ExtendA(suffix, b []byte, cfg Config) (*Kernel, error) {
	if len(suffix) == 0 {
		return k, nil
	}
	strip, err := Solve(suffix, b, cfg)
	if err != nil {
		return nil, err
	}
	p := steadyant.Compose(k.p, strip.p, k.m, len(suffix), k.n, steadyant.Multiply)
	return NewKernel(p, k.m+len(suffix), k.n), nil
}

// ExtendB returns the kernel of (a, b+suffix), where k is the kernel of
// (a, b) and a is the string k was computed for. Composition along b
// goes through the flip of Theorem 3.5.
func (k *Kernel) ExtendB(a, suffix []byte, cfg Config) (*Kernel, error) {
	if len(suffix) == 0 {
		return k, nil
	}
	strip, err := Solve(a, suffix, cfg)
	if err != nil {
		return nil, err
	}
	p := steadyant.Compose(k.p.Rotate180(), strip.p.Rotate180(), k.n, len(suffix), k.m, steadyant.Multiply)
	return NewKernel(p.Rotate180(), k.m, k.n+len(suffix)), nil
}
