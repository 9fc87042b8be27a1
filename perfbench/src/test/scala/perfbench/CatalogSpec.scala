package perfbench

import java.io.File

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** BENCHMARK.json (at the repository root) and the catalog the benchmark
  * reports from must list the same metrics and workloads.
  */
class CatalogSpec extends AnyFunSuite {

  private lazy val spec = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def entries(key: String): Seq[(String, String, String)] =
    spec.get(key).elements().asScala.toSeq.map(e =>
      (e.get("name").asText, e.get("unit").asText, e.get("better").asText))

  test("end-to-end metrics match the catalog") {
    assert(entries("end_to_end") == Catalog.endToEnd.map(e => (e.name, e.unit, e.better)))
  }

  test("per-layer metrics match the catalog") {
    assert(entries("per_layer") == Catalog.perLayer.map(e => (e.name, e.unit, e.better)))
  }

  test("workloads match the benchmark's workloads") {
    val names = spec.get("workloads").elements().asScala.map(_.get("name").asText).toSeq
    assert(names == Workload.all.map(_.name))
  }

  test("setup_s is an end-to-end metric with the largest bound") {
    val bounds = spec.get("end_to_end").elements().asScala.map(e => e.get("name").asText -> e.get("bound").asDouble).toMap
    assert(bounds("setup_s") == bounds.values.max)
    assert(bounds.values.forall(b => b > 0 && b <= 0.25))
  }
}
