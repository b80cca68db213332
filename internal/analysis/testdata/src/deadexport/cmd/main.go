package main

import (
	"fmt"

	"tsr/internal/deadexport"
)

func main() {
	deadexport.UsedByMain()
	fmt.Println(deadexport.Buf{})
}
