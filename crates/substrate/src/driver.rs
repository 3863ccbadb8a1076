//! The process driver behind `vhost` and `vrouter`: config in, REPL
//! loop forever.
//!
//! One thread reads stdin lines into a channel; the main thread owns
//! the substrate and alternates short [`RealSubstrate::run_for`] slices
//! (which sleep until a timer is due or a tunnel delivers a frame)
//! with draining the command channel and printing what the file
//! transfers have to report — the 5 ms slice is the operator's echo
//! latency, not the network's: transfers move their bytes from inside
//! the event loop. Stdout is line-oriented and machine-parseable — the
//! loopback interop test drives two of these processes through pipes.

use crate::config;
use crate::real::RealSubstrate;
use crate::repl::{role_name, Repl};
use catenet_core::NodeRole;
use catenet_sim::Duration;
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::mpsc;

/// Entry point shared by both binaries. `expect_role` is the binary's
/// identity: `vhost` drives hosts, `vrouter` drives routers, and a
/// config for the other role is refused (running a static-routes-only
/// process where the operator expects RIP is a silent outage).
pub fn run(expect_role: NodeRole, args: &[String]) -> ExitCode {
    let [config_path] = args else {
        eprintln!("usage: v{} <config-file>", role_name(expect_role));
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(config_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: read {config_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match config::parse(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.role != expect_role {
        eprintln!(
            "error: {config_path} declares a {}, this binary drives a {}",
            role_name(parsed.role),
            role_name(expect_role),
        );
        return ExitCode::FAILURE;
    }
    let mut sub = match RealSubstrate::from_config(&parsed) {
        Ok(sub) => sub,
        Err(e) => {
            eprintln!("error: bind tunnels: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} {} up: {} interface(s)",
        role_name(parsed.role),
        parsed.name,
        parsed.ifaces.len()
    );

    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
        // Sender drops here: EOF on stdin reads as a disconnect below.
    });

    let mut repl = Repl::new();
    loop {
        sub.run_for(Duration::from_millis(5));
        for line in repl.tick() {
            println!("{line}");
        }
        loop {
            match rx.try_recv() {
                Ok(line) => {
                    let action = repl.exec(&line, &mut sub);
                    for line in action.output {
                        println!("{line}");
                    }
                    if action.quit {
                        return ExitCode::SUCCESS;
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    // Operator hung up; drain transfers already in
                    // flight would be nice-to-have, but a closed stdin
                    // means nobody is listening — exit cleanly.
                    return ExitCode::SUCCESS;
                }
            }
        }
    }
}
