module Json = Json
module Key = Key
module Scheduler = Scheduler
module Store = Store
module Verify = Verify
