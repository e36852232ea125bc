//! Command-line helpers shared by the workspace's binaries.
//!
//! Every binary parses its flags the same way: each option is removed
//! from the argument list by name ([`take_opt`], [`take_flag`],
//! [`take_parsed`], [`take_list`]), and whatever is left afterwards is an
//! error ([`no_leftovers`]). Failures are typed so the exit code says who is at
//! fault: [`Error::Usage`] (exit 2) for an unknown flag, a missing or
//! malformed value or a bad combination; [`Error::Failed`] (exit 1) for
//! a run that started and failed. `crates/{bench,serve}/tests/cli.rs`
//! drive every binary through these paths.

use std::process::ExitCode;
use std::str::FromStr;

/// Why a command stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The arguments were wrong; nothing ran. Exit code 2.
    Usage(String),
    /// The command ran and failed. Exit code 1.
    Failed(String),
}

impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Failed(msg)
    }
}

/// Prints `prog: message` for an error and maps the result to the
/// process exit code: 0 on success, 2 for [`Error::Usage`], 1 for
/// [`Error::Failed`].
pub fn exit_code(prog: &str, result: Result<(), Error>) -> ExitCode {
    let (code, msg) = match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Error::Usage(msg)) => (2, msg),
        Err(Error::Failed(msg)) => (1, msg),
    };
    eprintln!("{prog}: {msg}");
    ExitCode::from(code)
}

/// Removes `--name value` from `args`, if present.
pub fn take_opt(args: &mut Vec<String>, name: &str) -> Result<Option<String>, Error> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(Error::Usage(format!("{name} needs a value")));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

/// Like [`take_opt`], but the option must be present.
pub fn take_required(args: &mut Vec<String>, name: &str) -> Result<String, Error> {
    take_opt(args, name)?.ok_or_else(|| Error::Usage(format!("{name} is required")))
}

/// Removes `--name value` from `args` and parses the value.
pub fn take_parsed<T: FromStr>(args: &mut Vec<String>, name: &str) -> Result<Option<T>, Error> {
    take_opt(args, name)?.map(|v| parse(name, &v)).transpose()
}

/// Removes `--name a,b,c` from `args` and parses the comma list.
pub fn take_list<T: FromStr>(args: &mut Vec<String>, name: &str) -> Result<Option<Vec<T>>, Error> {
    take_opt(args, name)?
        .map(|v| parse_list(name, &v))
        .transpose()
}

/// Removes the bare flag `--name` from `args`; true if it was present.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let Some(i) = args.iter().position(|a| a == name) else {
        return false;
    };
    args.remove(i);
    true
}

/// Parses the value of option `name`.
fn parse<T: FromStr>(name: &str, value: &str) -> Result<T, Error> {
    value
        .parse()
        .map_err(|_| Error::Usage(format!("bad value for {name}: {value}")))
}

/// Parses the comma list given to option `name`, trimming each item.
/// An empty list is a bad value, not an empty `Vec`.
fn parse_list<T: FromStr>(name: &str, value: &str) -> Result<Vec<T>, Error> {
    value.split(',').map(|s| parse(name, s.trim())).collect()
}

/// Errors on leftover (unrecognized) arguments.
pub fn no_leftovers(args: &[String]) -> Result<(), Error> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(Error::Usage(format!(
            "unrecognized arguments: {}",
            args.join(" ")
        )))
    }
}
