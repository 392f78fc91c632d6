package bitvec

import (
	"fmt"
	"strings"
)

// Test-only accessors: production code reads signatures only through the
// popcount and NextSetBit paths.

// Clear sets bit i to 0.
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether bit i is set.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// AndNot overwrites v with v AND NOT m and returns v.
func (v Vector) AndNot(m Vector) Vector {
	if v.n != m.n {
		panic("bitvec: AndNot of different lengths")
	}
	for i := range v.words {
		v.words[i] &^= m.words[i]
	}
	return v
}

// String renders the vector as a 0/1 string, lowest index first.
func (v Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// FromString parses a 0/1 string into a vector. Any rune other than '0' or
// '1' is an error.
func FromString(s string) (Vector, error) {
	v := New(len(s))
	for i, r := range s {
		switch r {
		case '1':
			v.Set(i)
		case '0':
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid rune %q at %d", r, i)
		}
	}
	return v, nil
}
