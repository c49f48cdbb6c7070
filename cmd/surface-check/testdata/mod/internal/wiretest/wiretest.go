package wiretest

func Unused() {} // exempt
