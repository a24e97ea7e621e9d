//! Trace tooling: write a generated trace to the on-disk binary format,
//! stream it back, and report Figure 2-style bias statistics.
//!
//! This is the harness you would use to run the predictors on your own
//! recorded traces: produce `BranchRecord`s, write them with
//! `TraceWriter`, and simulate the file through a `FileSource`.
//!
//! ```sh
//! cargo run --release --example trace_tools
//! ```

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter};

use bfbp::core::bf_tage::bf_isl_tage;
use bfbp::sim::simulate::Simulation;
use bfbp::trace::format::{TraceReader, TraceWriter};
use bfbp::trace::source::FileSource;
use bfbp::trace::stats::{BiasProfile, TraceMix};
use bfbp::trace::synth::suite;
use bfbp::trace::BranchKind;

fn main() -> Result<(), Box<dyn Error>> {
    let spec = suite::find("SERV3").expect("SERV3 is part of the suite");
    let trace = spec.generate_len(50_000);

    // 1. Write the trace to disk in the BFBT binary format.
    let path = std::env::temp_dir().join("serv3.bfbt");
    let file = File::create(&path)?;
    let mut writer = TraceWriter::new(BufWriter::new(file), trace.name())?;
    for record in &trace {
        writer.write(record)?;
    }
    writer.finish()?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "wrote {} records to {} ({} bytes, {:.2} bytes/record)",
        trace.len(),
        path.display(),
        bytes,
        bytes as f64 / trace.len() as f64
    );

    // 2. Stream it back, collecting statistics along the way.
    let reader = TraceReader::new(BufReader::new(File::open(&path)?))?;
    println!("trace name from header: {}", reader.name());
    let mut profile = BiasProfile::default();
    let records: Vec<_> = reader.collect::<Result<_, _>>()?;
    for r in &records {
        profile.observe(r);
    }
    println!(
        "bias profile: {:.1}% of static branches completely biased \
         ({:.1}% of dynamic executions)",
        profile.static_biased_percent(),
        profile.dynamic_biased_percent()
    );
    let mix = TraceMix::measure(&bfbp::trace::Trace::new("t", records));
    println!(
        "mix: {} conditionals, {} calls, {} returns, {} instructions",
        mix.count(BranchKind::CondDirect),
        mix.count(BranchKind::Call),
        mix.count(BranchKind::Return),
        mix.instructions()
    );

    // 3. Simulate straight from the file, one chunk at a time.
    let mut predictor = bf_isl_tage(10);
    let (result, _) = Simulation::new(&mut predictor).run(&mut FileSource::open(&path)?)?;
    println!("{result}");

    std::fs::remove_file(&path)?;
    Ok(())
}
