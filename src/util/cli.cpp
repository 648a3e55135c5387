#include "util/cli.h"

#include <cstdlib>
#include <ostream>

namespace vs::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    auto eq = name.find('=');
    if (eq != std::string::npos) {
      flags_[name.substr(0, eq)] = name.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[name] = argv[++i];
    } else {
      flags_[name] = "true";  // bare boolean flag
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  auto it = flags_.find(name);
  return it != flags_.end() ? it->second : fallback;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::optional<int> check_flags(
    const CliArgs& args, std::initializer_list<std::string_view> accepted,
    std::ostream& out, std::ostream& err) {
  auto name_of = [](std::string_view entry) {
    return entry.substr(0, entry.find(' '));
  };
  std::string usage = "usage: " + args.program_.substr(
                                      args.program_.find_last_of('/') + 1);
  for (std::string_view entry : accepted) {
    usage += " [--";
    usage += entry;
    usage += ']';
  }
  usage += " [--help]\n";

  if (args.has("help")) {
    out << usage;
    return 0;
  }
  for (const auto& [flag, value] : args.flags_) {
    bool known = false;
    for (std::string_view entry : accepted) known |= name_of(entry) == flag;
    if (!known) {
      err << "unknown flag --" << flag << '\n' << usage;
      return 2;
    }
  }
  if (!args.positional_.empty()) {
    err << "unexpected argument " << args.positional_.front() << '\n'
        << usage;
    return 2;
  }
  return std::nullopt;
}

std::int64_t resolve_int(const CliArgs* cli, const std::string& flag,
                         const char* env, std::int64_t fallback) {
  if (cli != nullptr && cli->has(flag)) return cli->get_int(flag, fallback);
  if (const char* value = std::getenv(env)) {
    return std::strtoll(value, nullptr, 10);
  }
  return fallback;
}

double resolve_double(const CliArgs* cli, const std::string& flag,
                      const char* env, double fallback) {
  if (cli != nullptr && cli->has(flag)) return cli->get_double(flag, fallback);
  if (const char* value = std::getenv(env)) {
    return std::strtod(value, nullptr);
  }
  return fallback;
}

}  // namespace vs::util
