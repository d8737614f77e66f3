#include "viaarray/primitive_store.h"

#include <fstream>
#include <map>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

/// Magic + store-format version. Bumping the version orphans every file
/// written under the old one (their loads miss and the next save rewrites).
constexpr const char* kMagic = "viaduct-stress-primitives v1";

/// Parses the whole file into key -> sigma line. A structural problem —
/// wrong magic/version, unknown directive, entry without a sigma line —
/// invalidates the whole file (empty map: every load misses). An entry
/// whose payload fails to parse (corrupt token, NaN, overflow) is dropped
/// individually: its loads miss, and the next save rewrites the file
/// without it.
std::map<std::string, std::string> readAll(const std::string& path) {
  std::map<std::string, std::string> entries;
  std::ifstream is(path);
  if (!is) return entries;
  std::string line;
  if (!std::getline(is, line) || line != kMagic) return entries;

  std::string key, sigma;
  bool haveSigma = false;
  auto flush = [&]() -> bool {
    if (key.empty()) return true;
    if (!haveSigma) return false;  // truncated entry: whole file invalid
    const auto parsed = parseDoubles(sigma);
    if (parsed && !parsed->empty()) entries[key] = std::move(sigma);
    key.clear();
    sigma.clear();
    haveSigma = false;
    return true;
  };
  while (std::getline(is, line)) {
    if (line.rfind("entry ", 0) == 0) {
      if (!flush()) return {};
      key = line.substr(6);
    } else if (line.rfind("sigma ", 0) == 0) {
      if (key.empty()) return {};  // sigma outside an entry
      sigma = line.substr(6);
      haveSigma = true;
    } else if (!line.empty()) {
      return {};  // unknown directive
    }
  }
  if (!flush()) return {};
  return entries;
}

}  // namespace

StressPrimitiveStore::StressPrimitiveStore(std::string path)
    : path_(std::move(path)) {
  VIADUCT_REQUIRE(!path_.empty());
}

std::optional<std::vector<double>> StressPrimitiveStore::load(
    const std::string& key) const {
  VIADUCT_SPAN("primitive_store.load");
  VIADUCT_COUNTER_ADD("primitive_store.loads", 1);
  const auto entries = readAll(path_);
  const auto it = entries.find(key);
  if (it == entries.end()) return std::nullopt;
  // parseDoubles is non-throwing by contract: a corrupt token is a
  // malformed entry -> miss, same as a structural problem in readAll.
  auto sigma = parseDoubles(it->second);
  if (!sigma || sigma->empty()) return std::nullopt;
  // Models silent corruption that survives parsing (a truncated vector of
  // valid doubles): the caller's shape validation must degrade it to a
  // recompute, never an error.
  if (fault::shouldInject("primitive_store.load")) sigma->pop_back();
  return sigma;
}

void StressPrimitiveStore::save(const std::string& key,
                                const std::vector<double>& sigma) {
  VIADUCT_SPAN("primitive_store.save");
  VIADUCT_COUNTER_ADD("primitive_store.saves", 1);
  VIADUCT_REQUIRE(!key.empty() && !sigma.empty());
  // In-process writers serialize on the mutex (two concurrent saves would
  // race on the same .tmp path); cross-process safety is the atomic
  // publish below.
  std::lock_guard lock(mutex_);
  auto entries = readAll(path_);
  entries[key] = formatDoubles(sigma);

  if (!publishFileAtomically(path_, [&](std::ostream& os) {
        os << kMagic << '\n';
        for (const auto& [k, s] : entries)
          os << "entry " << k << '\n' << "sigma " << s << '\n';
      }))
    throw ParseError("cannot publish stress-primitive store: " + path_);
  VIADUCT_DEBUG << "stress-primitive store: " << entries.size()
                << " entr(ies) at " << path_;
}

std::size_t StressPrimitiveStore::entryCount() const {
  return readAll(path_).size();
}

}  // namespace viaduct
