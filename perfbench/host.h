// Host fingerprint and process memory for the benchmark's result records.
// A figure recorded on one host is only comparable with figures carrying
// the same fingerprint.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <string>

#include "stats.h"
#include "stburst/common/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

struct HostFingerprint {
  long nproc = 0;
  std::string cpu_model;
  std::string isa;
  std::string compiler;
  std::string build_type;
};

inline HostFingerprint Fingerprint() {
  HostFingerprint fp;
  fp.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        fp.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (fp.cpu_model.empty()) fp.cpu_model = "unknown";
  fp.isa = stburst::simd::IsaName(stburst::simd::ActiveIsa());
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  return fp;
}

inline std::string FingerprintJson(const HostFingerprint& fp) {
  return "{\"nproc\": " + std::to_string(fp.nproc) +
         ", \"cpu_model\": " + JsonString(fp.cpu_model) +
         ", \"isa\": " + JsonString(fp.isa) +
         ", \"compiler\": " + JsonString(fp.compiler) +
         ", \"build_type\": " + JsonString(fp.build_type) + "}";
}

/// Peak resident set of this process so far, in MB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
