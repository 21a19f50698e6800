// Command tool is the fixture's production path.
package main

import (
	"fmt"

	"fixture/a"
)

func init() {}

func main() {
	var c a.Config
	a.Count(&c, 0)
	d, _ := a.Load(nil)
	var s a.Shape = a.Square{}
	fmt.Println(a.Describe(&c, d))
	fmt.Println(s)
}
