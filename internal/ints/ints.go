// Package ints collects the small scalar helpers the engines all need,
// replacing the per-package copies that accumulated across sta, route,
// core, gcn and place.
package ints

// Abs returns the absolute value of v.
func Abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int) int {
	return (a + b - 1) / b
}
