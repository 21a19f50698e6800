// Package a holds one case per rule of the unused-code checker.
package a

import "encoding/json"

// Unused has no reference: reported.
func Unused() {}

// OwnTestOnly is referenced only by this package's test: reported.
func OwnTestOnly() int { return 1 }

// OtherTest is referenced by a test in another directory: live.
func OtherTest() int { return 2 }

// CallerOnly is referenced only by the caller module: live.
func CallerOnly() int { return 3 }

// Recursive references only itself: reported.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Shape is a module interface.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{ Side int }

// Area is live through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter has no reference: reported.
func (s Square) Perimeter() int { return 4 * s.Side }

// Name implements fmt.Stringer and json.Marshaler.
type Name struct{ First string }

// String is live through fmt.Stringer.
func (n Name) String() string { return n.First }

// MarshalJSON is live through json.Marshaler.
func (n Name) MarshalJSON() ([]byte, error) { return json.Marshal(n.First) }

// Config has one field per write rule.
type Config struct {
	TestOnly bool  // only a test writes it: reported
	Counts   []int // written through an index chain: live
	Seam     int   // only a test writes it, and the allowlist lists it
}

// Doc is what Load decodes.
type Doc struct {
	Title string // only a JSON decode and a test write it: live
}

// Count writes Counts through an index chain.
func Count(c *Config, i int) { c.Counts[i]++ }

// Load decodes a Doc.
func Load(data []byte) (Doc, error) {
	var d Doc
	err := json.Unmarshal(data, &d)
	return d, err
}

// Describe reads every field.
func Describe(c *Config, d Doc) (bool, int, string, Name) {
	return c.TestOnly, c.Seam, d.Title, Name{}
}
