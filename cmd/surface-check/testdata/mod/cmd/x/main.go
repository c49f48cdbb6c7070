package main

import (
	"fmt"

	"jungle/internal/a"
)

func main() { a.Used(); fmt.Println(a.T{}) }
