//! Run SYN-dog over a pcap capture file, end to end.
//!
//! ```text
//! cargo run --release -p syndog-cli --example pcap_sniffer [capture.pcap]
//! ```
//!
//! Without an argument, the example synthesizes a capture first: Auckland
//! background traffic plus a 10 SYN/s flood, written as real
//! Ethernet/IPv4/TCP packets. It then re-reads the capture exactly as it
//! would any foreign pcap — classifying every frame with the paper's §2
//! algorithm — and reports the detection and the suspect MAC address.

use syndog::SynDogConfig;
use syndog_attack::SynFlood;
use syndog_net::{Ipv4Net, MacAddr};
use syndog_router::{SourceLocator, SynDogAgent};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::RecordReader;
use syndog_traffic::{sites::OBSERVATION_PERIOD, SiteProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let site = SiteProfile::auckland();
    let stub: Ipv4Net = site.stub();
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        let path = std::env::temp_dir().join("syndog_example.pcap");
        let path = path.to_string_lossy().into_owned();
        println!("no capture given; synthesizing {path}");
        let mut rng = SimRng::seed_from_u64(5);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::ZERO + OBSERVATION_PERIOD * 90,
            SimDuration::from_secs(600),
            "199.0.0.80:80".parse().unwrap(),
        )
        .with_mac(MacAddr::for_host(0xffee, 99));
        trace.merge(&flood.generate_trace(&mut rng));
        let file = std::fs::File::create(&path).expect("create capture");
        trace
            .write_pcap(std::io::BufWriter::new(file))
            .expect("write capture");
        path
    });

    // Stream the capture back: every packet is classified from raw bytes,
    // one at a time, and judged as it passes; the locator arms at the
    // first alarm.
    let file = std::fs::File::open(&path)?;
    let mut reader = RecordReader::pcap(std::io::BufReader::new(file), stub)?;
    let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
    let mut locator = SourceLocator::new(stub);
    let mut records = 0;
    agent.run_trace_with(reader.by_ref(), None, |agent, record, _| {
        records += 1;
        locator.observe_after_alarm(agent, record);
    });
    reader.finish()?;
    println!("read {records} packets from {path}");
    match agent.first_alarm() {
        Some(alarm) => {
            println!(
                "flooding detected at period {} (t = {:.0} s), y = {:.2}",
                alarm.period,
                alarm.time.as_secs_f64(),
                alarm.statistic
            );
            match locator.prime_suspect(0.8) {
                Some(s) => println!(
                    "prime suspect: MAC {} ({} spoofed SYNs, {:.0}%)",
                    s.mac,
                    s.spoofed_syns,
                    s.share * 100.0
                ),
                None => println!("no dominant suspect"),
            }
        }
        None => println!("no flooding in this capture"),
    }
    Ok(())
}
