//! The remote worker executable the `saga-remote` workload spawns: the
//! solver routines of `async_optim` served over the sparklet wire protocol.

fn main() -> std::io::Result<()> {
    sparklet::remote::worker_main(async_optim::worker_registry())
}
