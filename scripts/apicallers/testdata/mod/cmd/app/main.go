// Command app is the caller the apicallers test counts.
package main

import (
	"fmt"

	"example.com/mod/lib"
)

func main() {
	fmt.Println(lib.Run(lib.Config{Used: 1}), lib.Name{}, lib.Fail())
}
