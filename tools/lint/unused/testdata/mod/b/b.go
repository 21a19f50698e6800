// Package b only has a test that calls into package a.
package b
